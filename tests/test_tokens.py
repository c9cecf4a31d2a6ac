"""Vocabulary construction, tokenization layout, quantization, and the
formula embedding path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysgram.errors import EmbeddingError, VocabularyError
from crysgram.grammar import parse_formula
from crysgram.nn import Tensor
from crysgram.tokens import (
    CLS_ID,
    EMPTY_ID,
    N_FORMULA_SLOTS,
    PAD_ID,
    UNK_ID,
    ElementEmbeddingTable,
    InformaticsBinning,
    InformaticsFields,
    TokenVocabulary,
    assemble_batch,
    build_vocabulary,
    embed_formula,
    quantize_informatics,
    sequence_length,
    tokenize_crystal,
)

VOCAB = build_vocabulary()


class TestVocabulary:
    def test_reserved_ids(self):
        for token_id, token in enumerate(
                ("[CLS]", "[MASK]", "[PAD]", "[EMPTY]", "[UNK]")):
            assert VOCAB.token_at(token_id) == ("special", token)

    def test_covers_all_230_numbers(self):
        lo, hi = VOCAB.category_ranges["number"]
        assert hi - lo == 230

    def test_deterministic_construction(self):
        assert build_vocabulary().to_text() == VOCAB.to_text()

    def test_serialization_roundtrip_bit_exact(self):
        text = VOCAB.to_text()
        again = TokenVocabulary.from_text(text)
        assert again == VOCAB
        assert again.to_text() == text

    def test_dataset_tokens_included(self):
        info = InformaticsFields(topology="pcu.cat0", unit_cell_volume=1234.5)
        vocab = build_vocabulary(datasets=[info],
                                 info_layout=("topology", "unit_cell_volume"))
        assert vocab.id_of("topology", "pcu.cat0") != UNK_ID

    def test_unseen_maps_to_unk(self):
        assert VOCAB.id_of("topology", "never-seen") == UNK_ID

    def test_ranges_are_dense_partition(self):
        spans = sorted(VOCAB.category_ranges.values())
        assert spans[0][0] == 0
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
        assert spans[-1][1] == VOCAB.size


class TestQuantization:
    BINNING = InformaticsBinning.from_observations([10.0, 100000.0])

    def test_porosity_boundaries(self):
        assert quantize_informatics(0.0, "porosity_fraction",
                                    self.BINNING) == "por_b00"
        assert quantize_informatics(100.0, "porosity_fraction",
                                    self.BINNING) == "por_b19"

    def test_exact_edge_goes_to_upper_bin(self):
        # 20 uniform bins over [0, 100]: 5.0 is the lower edge of bin 1
        assert quantize_informatics(5.0, "porosity_fraction",
                                    self.BINNING) == "por_b01"
        edges = self.BINNING.volume_edges
        token_below = quantize_informatics(edges[3] * (1 - 1e-12),
                                           "unit_cell_volume", self.BINNING)
        token_at = quantize_informatics(edges[3], "unit_cell_volume",
                                        self.BINNING)
        assert token_below == "vol_b02" and token_at == "vol_b03"

    @given(st.floats(min_value=10.0, max_value=100000.0),
           st.floats(min_value=10.0, max_value=100000.0))
    @settings(max_examples=80, deadline=None)
    def test_volume_monotone(self, v1, v2):
        lo, hi = sorted((v1, v2))
        t1 = quantize_informatics(lo, "unit_cell_volume", self.BINNING)
        t2 = quantize_informatics(hi, "unit_cell_volume", self.BINNING)
        assert t1 <= t2

    def test_atom_count_tokens(self):
        assert quantize_informatics(17, "atom_count", self.BINNING) == "17"
        assert quantize_informatics(512, "atom_count", self.BINNING) == "512"
        assert quantize_informatics(513, "atom_count", self.BINNING) == ">512"

    def test_non_finite_rejected(self):
        with pytest.raises(VocabularyError):
            quantize_informatics(float("nan"), "porosity_fraction", self.BINNING)
        with pytest.raises(VocabularyError):
            quantize_informatics(float("inf"), "unit_cell_volume", self.BINNING)

    def test_out_of_domain_rejected(self):
        with pytest.raises(VocabularyError):
            quantize_informatics(-1.0, "unit_cell_volume", self.BINNING)
        with pytest.raises(VocabularyError):
            quantize_informatics(101.0, "porosity_fraction", self.BINNING)


class TestTokenizeCrystal:
    def test_fm3m_position_layout(self):
        seq = tokenize_crystal(225, parse_formula("NaCl"), None, VOCAB)
        expected = ("F4/m-32/m", "225", "192", "m-3m", "cubic", "m-3m",
                    "Centrosymmetric", "non-polar", "F", "4/m", "-3", "2/m")
        assert seq.token_labels[1:13] == expected
        categories = ("full_symbol", "number", "order", "point_group",
                      "crystal_system", "laue_class", "symmetry", "polarity",
                      "centering", "directional", "directional", "directional")
        assert seq.categories[1:13] == categories
        for position, (category, token) in enumerate(
                zip(categories, expected), start=1):
            assert seq.ids[position] == VOCAB.id_of(category, token)

    def test_cls_always_first(self):
        seq = tokenize_crystal(1, parse_formula("Si"), None, VOCAB)
        assert seq.ids[0] == CLS_ID

    def test_padding_count(self):
        seq = tokenize_crystal(14, parse_formula("Fe2O3"), None, VOCAB)
        assert seq.ids[-18:] == (PAD_ID,) * 18
        assert sum(seq.attention_mask) == 1 + 12 + 2

    def test_empty_directional_slots_use_empty_token(self):
        # "P 1" has one directional symbol; slots 1 and 2 (positions 11, 12)
        # carry the empty marker
        seq = tokenize_crystal(1, parse_formula("Si"), None, VOCAB)
        assert seq.ids[10] != EMPTY_ID
        assert seq.ids[11] == EMPTY_ID and seq.ids[12] == EMPTY_ID

    def test_absent_informatics_emit_empty(self):
        vocab = build_vocabulary(info_layout=("topology", "unit_cell_volume"))
        seq = tokenize_crystal(225, parse_formula("NaCl"),
                               InformaticsFields(topology="pcu.cat0"), vocab)
        assert len(seq) == sequence_length(2)
        assert seq.ids[14] == EMPTY_ID  # volume slot
        assert seq.categories[13] == "topology"

    def test_layout_mismatch_raises(self):
        with pytest.raises(VocabularyError):
            tokenize_crystal(225, parse_formula("NaCl"),
                             InformaticsFields(topology="pcu.cat0"), VOCAB)

    def test_sequence_length_constant_for_layout(self):
        for sg, formula in ((1, "Si"), (225, "NaCl"), (194, "Ca(OH)2")):
            seq = tokenize_crystal(sg, parse_formula(formula), None, VOCAB)
            assert len(seq) == 33

    def test_injective_on_distinct_groups(self):
        comp = parse_formula("Si")
        ids = {tokenize_crystal(n, comp, None, VOCAB).ids
               for n in range(1, 231)}
        assert len(ids) == 230


class TestFormulaEmbedding:
    TABLE = ElementEmbeddingTable.deterministic(dimension=8, seed=3)

    def test_rows_are_fraction_then_vector(self):
        comp = parse_formula("Fe2O3")
        matrix = embed_formula(comp, self.TABLE)
        assert matrix.shape == (20, 9)
        np.testing.assert_allclose(matrix[0, 0], 0.4)
        np.testing.assert_allclose(matrix[0, 1:], self.TABLE.vector("Fe"))
        np.testing.assert_allclose(matrix[1, 0], 0.6)
        np.testing.assert_allclose(matrix[1, 1:], self.TABLE.vector("O"))
        assert (matrix[2:] == 0).all()

    def test_single_element_fraction_one(self):
        matrix = embed_formula(parse_formula("Si"), self.TABLE)
        np.testing.assert_allclose(matrix[0, 0], 1.0)

    def test_row_norm_decomposition(self):
        comp = parse_formula("Ca(OH)2")
        matrix = embed_formula(comp, self.TABLE)
        for i, (symbol, fraction) in enumerate(comp.items()):
            expected = fraction ** 2 + np.sum(self.TABLE.vector(symbol) ** 2)
            np.testing.assert_allclose(np.sum(matrix[i] ** 2), expected)
        assert (np.linalg.norm(matrix[len(comp):], axis=1) == 0).all()

    def test_permutation_permutes_rows(self):
        m1 = embed_formula(parse_formula("FeO"), self.TABLE)
        m2 = embed_formula(parse_formula("OFe"), self.TABLE)
        np.testing.assert_array_equal(m1[0], m2[1])
        np.testing.assert_array_equal(m1[1], m2[0])

    def test_missing_element_raises(self):
        table = ElementEmbeddingTable({"Fe": np.ones(4)})
        with pytest.raises(EmbeddingError):
            embed_formula(parse_formula("FeO"), table)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "emb.txt"
        self.TABLE.save(path)
        again = ElementEmbeddingTable.from_file(path)
        assert again.dimension == self.TABLE.dimension
        np.testing.assert_array_equal(again.vector("Fe"),
                                      self.TABLE.vector("Fe"))

    def test_dimension_validation(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("Fe 1.0 2.0\nO 1.0 2.0 3.0\n")
        with pytest.raises(EmbeddingError):
            ElementEmbeddingTable.from_file(path)


class TestAssembleInput:
    TABLE = ElementEmbeddingTable.deterministic(dimension=8, seed=3)

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.d_model = 16
        self.token_embedding = Tensor(rng.normal(size=(VOCAB.size, 16)))
        self.proj_w = Tensor(rng.normal(size=(9, 16)))
        self.proj_b = Tensor(rng.normal(size=(16,)))
        self.positional = Tensor(rng.normal(size=(64, 16)))

    def assemble(self, sg=225, formula="NaCl"):
        comp = parse_formula(formula)
        seq = tokenize_crystal(sg, comp, None, VOCAB)
        matrix = embed_formula(comp, self.TABLE)
        return seq, assemble_batch([seq], [matrix], self.token_embedding,
                                   self.proj_w, self.proj_b, self.positional)

    def test_output_shape(self):
        _, out = self.assemble()
        assert out.matrix.shape == (1, 33, 16)

    def test_pad_rows_are_zero(self):
        seq, out = self.assemble()
        pads = ~np.asarray(seq.attention_mask, dtype=bool)
        assert (out.matrix.data[0, pads] == 0).all()

    def test_discrete_positions_get_token_plus_positional(self):
        seq, out = self.assemble()
        expected = (self.token_embedding.data[seq.ids[0]]
                    + self.positional.data[0])
        np.testing.assert_allclose(out.matrix.data[0, 0], expected)

    def test_formula_positions_get_projection_plus_positional(self):
        comp = parse_formula("NaCl")
        seq, out = self.assemble()
        matrix = embed_formula(comp, self.TABLE)
        row = matrix[0] @ self.proj_w.data + self.proj_b.data \
            + self.positional.data[13]
        np.testing.assert_allclose(out.matrix.data[0, 13], row)

    def test_zero_formula_row_projects_to_bias(self):
        projected = np.zeros(9) @ self.proj_w.data + self.proj_b.data
        np.testing.assert_array_equal(projected, self.proj_b.data)

    def test_deterministic(self):
        _, out1 = self.assemble()
        _, out2 = self.assemble()
        np.testing.assert_array_equal(out1.matrix.data, out2.matrix.data)

    def test_attention_mask_marks_pads(self):
        seq, out = self.assemble(formula="Si")
        assert out.attention_mask.sum() == 1 + 12 + 1


# the batches of test_objectives.TestTrimmedEncoder
SHORT_ROWS = ((225, "NaCl"), (14, "Fe2O3"), (62, "LiFePO4"), (227, "Si"),
              (221, "CaTiO3"))
TWENTY_ELEMENTS = "HLiBeBCNOFNaMgAlSiPSClKCaScTiV"
EMBED_PARAMS = ("embed.token", "embed.formula.w", "embed.formula.b",
                "embed.position")


class TestAssemblyWidth:
    """assemble_batch(width=w) against the leading w columns of the full
    width, forward and gradients, bit for bit. At the desk batch and
    element-vector sizes, projecting fewer than all 20 slots changes the
    order in which the BLAS sums the projection's weight gradient."""

    TABLE = ElementEmbeddingTable.deterministic(seed=3)
    BATCHES = {"short": SHORT_ROWS,
               "twenty-elements": SHORT_ROWS + ((1, TWENTY_ELEMENTS),),
               "short-x13": SHORT_ROWS * 13}

    def inputs(self, name):
        seqs, mats = [], []
        for sg, formula in self.BATCHES[name]:
            comp = parse_formula(formula)
            seqs.append(tokenize_crystal(sg, comp, None, VOCAB))
            mats.append(embed_formula(comp, self.TABLE))
        return seqs, mats

    def params(self, dtype):
        rng = np.random.default_rng(5)
        shapes = ((VOCAB.size, 16), (self.TABLE.dimension + 1, 16), (16,),
                  (64, 16))
        return [Tensor.parameter(rng.normal(size=shape).astype(dtype), name)
                for name, shape in zip(EMBED_PARAMS, shapes)]

    @staticmethod
    def widths(seqs):
        mask = np.array([s.attention_mask for s in seqs], dtype=bool)
        attended = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
        start = mask.shape[1] - N_FORMULA_SLOTS
        return sorted({start + 1, attended, mask.shape[1]})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_width_equals_leading_columns_of_full_width(self, name, dtype):
        seqs, mats = self.inputs(name)
        for width in self.widths(seqs):
            results = []
            for narrow in (False, True):
                params = self.params(dtype)
                if narrow:
                    out = assemble_batch(seqs, mats, *params, width=width)
                    matrix = out.matrix
                else:
                    out = assemble_batch(seqs, mats, *params)
                    matrix = out.matrix[:, :width]
                g = np.random.default_rng(6).normal(size=matrix.shape)
                data = matrix.data.tobytes()
                matrix.backward(g.astype(dtype))
                results.append((data, out.attention_mask[:, :width],
                                [p.grad.tobytes() for p in params]))
            (full, full_mask, full_grads), (data, mask, grads) = results
            assert matrix.shape == (len(seqs), width, 16)
            assert data == full, width
            np.testing.assert_array_equal(mask, full_mask)
            for param, grad, ref in zip(EMBED_PARAMS, grads, full_grads):
                assert grad == ref, (width, param)

    @pytest.mark.parametrize("width", [0, 13, 34])
    def test_width_outside_formula_slots_raises(self, width):
        seqs, mats = self.inputs("short")
        assert len(seqs[0]) - N_FORMULA_SLOTS == 13
        with pytest.raises(EmbeddingError):
            assemble_batch(seqs, mats, *self.params(np.float64), width=width)
