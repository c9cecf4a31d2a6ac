"""Vocabulary construction, tokenization layout, quantization, and the
formula embedding path."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysgram.errors import (
    EmbeddingError,
    InvalidSpaceGroupError,
    VocabularyError,
)
from crysgram.grammar import EMPTY_SLOT, lookup_space_group, parse_formula
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
    sequence_categories,
    sequence_length,
    tokenize_crystal,
)
from crysgram.tokens.vocab import CATEGORY_ORDER, SG_CATEGORIES

VOCAB = build_vocabulary()


class TestVocabulary:
    def test_reserved_ids(self):
        for token_id, token in enumerate(
                ("[CLS]", "[MASK]", "[PAD]", "[EMPTY]", "[UNK]")):
            assert VOCAB.token_at(token_id) == ("special", token)

    def test_covers_all_230_numbers(self):
        numbers = [token for category, token in map(VOCAB.token_at,
                                                     range(VOCAB.size))
                   if category == "number"]
        assert sorted(numbers, key=int) == [str(n) for n in range(1, 231)]

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
        # each category holds one unbroken run of ids, in category order
        categories = [VOCAB.token_at(i)[0] for i in range(VOCAB.size)]
        runs = [c for i, c in enumerate(categories)
                if i == 0 or c != categories[i - 1]]
        assert runs == [c for c in CATEGORY_ORDER if c in categories]


def edited(text, line, new):
    """``text`` with the vocabulary line ``line`` replaced by ``new``."""
    lines = text.split("\n")
    lines[lines.index(line)] = new
    return "\n".join(lines)


INFO_TEXT = build_vocabulary(
    datasets=[InformaticsFields(topology="pcu", organic_cation="CH3NH3",
                                unit_cell_volume=900.0),
              InformaticsFields(topology="dia", unit_cell_volume=4800.0)],
    info_layout=("topology", "unit_cell_volume",
                 "organic_cation")).to_text()

EDGES = VOCAB.binning.volume_edges
# volume edges InformaticsBinning refuses
BAD_EDGES = {
    "too-few": EDGES[:-1],
    "swapped": EDGES[:3] + (EDGES[4], EDGES[3]) + EDGES[5:],
    "repeated": EDGES[:4] + EDGES[3:-1],
    "infinite": EDGES[:-1] + (math.inf,),
    "nan": (math.nan,) + EDGES[1:],
    "not-positive": (-EDGES[0],) + EDGES[1:],
}
EDGES_RULE = ("volume edges must be 65 finite, positive, strictly "
              "increasing numbers")


class TestVocabularyFileChecks:
    """A damaged ``vocab.txt`` is refused with the line at fault, not
    loaded with shifted ids."""

    TEXT = VOCAB.to_text()
    # the file's line 11: the first token after the five reserved ones
    LINE = "5\tfull_symbol\tP1"

    def test_unknown_category_is_named(self):
        text = edited(self.TEXT, self.LINE, "5\tnot_a_category\tP1")
        with pytest.raises(VocabularyError, match="not_a_category"):
            TokenVocabulary.from_text(text)

    def test_constructor_refuses_an_unknown_category(self):
        with pytest.raises(VocabularyError, match="'shape'"):
            TokenVocabulary({"element": ["H"], "shape": ["cube"]}, (),
                            VOCAB.binning)

    @pytest.mark.parametrize("line,fields", [
        ("5\tfull_symbol\tP1\textra", 4), ("5\tfull_symbol", 2)])
    def test_wrong_field_count_names_the_line(self, line, fields):
        assert len(line.split("\t")) == fields
        text = edited(self.TEXT, self.LINE, line)
        message = f"line 11: found {line!r}, expected '5\\tfull_symbol\\tP1'"
        with pytest.raises(VocabularyError, match=f"^{re.escape(message)}$"):
            TokenVocabulary.from_text(text)

    def test_swapped_category_blocks_are_refused(self):
        # the number block moved before the full-symbol block, renumbered
        # densely, so only the order of the blocks is wrong
        lines = self.TEXT.rstrip("\n").split("\n")
        head = [ln for ln in lines if not ln[0].isdigit()]
        rows = [ln.split("\t") for ln in lines if ln[0].isdigit()]
        order = ([r for r in rows if r[1] == "special"]
                 + [r for r in rows if r[1] == "number"]
                 + [r for r in rows if r[1] not in ("special", "number")])
        body = [f"{i}\t{c}\t{t}" for i, (_, c, t) in enumerate(order)]
        text = "\n".join(head + body) + "\n"
        message = ("line 11: found '5\\tnumber\\t1', "
                   "expected '5\\tfull_symbol\\tP1'")
        with pytest.raises(VocabularyError, match=f"^{re.escape(message)}$"):
            TokenVocabulary.from_text(text)

    @pytest.mark.parametrize("prefix, line, message", [
        ("5\t", "x\tfull_symbol\tP1",
         "line 11: found 'x\\tfull_symbol\\tP1', "
         "expected '5\\tfull_symbol\\tP1'"),
        ("!atom_count_max\t", "!atom_count_max\tabc",
         "line 3: found '!atom_count_max\\tabc', "
         "expected '!atom_count_max\\t512'"),
        ("!volume_edges\t", "!volume_edges\t0x1p0,zz",
         "line 5: !volume_edges holds a non-hex float: 'zz'")])
    def test_unreadable_number_names_the_line(self, prefix, line, message):
        [old] = [ln for ln in self.TEXT.split("\n") if ln.startswith(prefix)]
        with pytest.raises(VocabularyError, match=f"^{re.escape(message)}$"):
            TokenVocabulary.from_text(edited(self.TEXT, old, line))

    def test_load_names_the_path(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text(edited(self.TEXT, self.LINE, "5\tfull_symbol"),
                        encoding="utf-8")
        with pytest.raises(VocabularyError,
                           match=f"^{re.escape(str(path))}: line 11: "):
            TokenVocabulary.load(path)


    @pytest.mark.parametrize("case", sorted(BAD_EDGES))
    def test_bad_volume_edges_name_line_5(self, case):
        [old] = [ln for ln in self.TEXT.split("\n")
                 if ln.startswith("!volume_edges\t")]
        line = "!volume_edges\t" + ",".join(e.hex() for e in BAD_EDGES[case])
        with pytest.raises(VocabularyError, match=f"^line 5: {EDGES_RULE}$"):
            TokenVocabulary.from_text(edited(self.TEXT, old, line))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_single_line_edit_loads_only_as_written(self, data):
        # a file that holds text tokens, so that their lines are read too
        lines = INFO_TEXT.split("\n")
        i = data.draw(st.integers(0, len(lines) - 1))
        kept = lines[i][:data.draw(st.integers(0, len(lines[i])))]
        pieces = st.one_of(
            st.characters(exclude_characters="\n"),
            st.sampled_from(["\t", ",", "0", "5", "\u0665", "\r", "#",
                             "topology", "organic_cation", "unit_cell_volume",
                             "0x1.8p+10", "inf", "pcu", "zzz"]))
        lines[i] = data.draw(st.one_of(
            st.lists(pieces, max_size=4).map(lambda p: kept + "".join(p)),
            st.sampled_from(lines)))
        text = "\n".join(lines)
        try:
            vocab = TokenVocabulary.from_text(text)
        except VocabularyError as exc:
            # the first line that differs is never after the edited one
            named = re.match(r"line (\d+): ", str(exc))
            assert named and int(named.group(1)) <= i + 1, str(exc)
        else:
            assert vocab.to_text() == text


class TestInformaticsBinning:
    @pytest.mark.parametrize("case", sorted(BAD_EDGES))
    def test_bad_volume_edges_are_refused(self, case):
        with pytest.raises(VocabularyError, match=f"^{EDGES_RULE}$"):
            InformaticsBinning(BAD_EDGES[case])

    def test_a_too_narrow_observed_range_widens_to_a_decade(self):
        # two volumes one ulp apart would give 65 equal edges
        lo = 1000.0
        assert (InformaticsBinning.from_observations(
                    [lo, math.nextafter(lo, 2 * lo)])
                == InformaticsBinning.from_observations([lo]))
        assert InformaticsBinning.from_observations([lo]).volume_edges[
            -1] == pytest.approx(10 * lo)


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
        ids = tokenize_crystal(225, parse_formula("NaCl"), None, VOCAB)
        expected = ("F4/m-32/m", "225", "192", "m-3m", "cubic", "m-3m",
                    "Centrosymmetric", "non-polar", "F", "4/m", "-3", "2/m")
        assert tuple(VOCAB.token_at(i)[1] for i in ids[1:13]) == expected
        categories = ("full_symbol", "number", "order", "point_group",
                      "crystal_system", "laue_class", "symmetry", "polarity",
                      "centering", "directional", "directional", "directional")
        assert sequence_categories(VOCAB.info_layout)[1:13] == categories
        for position, (category, token) in enumerate(
                zip(categories, expected), start=1):
            assert ids[position] == VOCAB.id_of(category, token)

    def test_cls_always_first(self):
        ids = tokenize_crystal(1, parse_formula("Si"), None, VOCAB)
        assert ids[0] == CLS_ID

    def test_padding_count(self):
        ids = tokenize_crystal(14, parse_formula("Fe2O3"), None, VOCAB)
        assert ids[-18:] == (PAD_ID,) * 18
        assert sum(i != PAD_ID for i in ids) == 1 + 12 + 2

    def test_empty_directional_slots_use_empty_token(self):
        # "P 1" has one directional symbol; slots 1 and 2 (positions 11, 12)
        # carry the empty marker
        ids = tokenize_crystal(1, parse_formula("Si"), None, VOCAB)
        assert ids[10] != EMPTY_ID
        assert ids[11] == EMPTY_ID and ids[12] == EMPTY_ID

    def test_absent_informatics_emit_empty(self):
        vocab = build_vocabulary(info_layout=("topology", "unit_cell_volume"))
        ids = tokenize_crystal(225, parse_formula("NaCl"),
                               InformaticsFields(topology="pcu.cat0"), vocab)
        assert len(ids) == sequence_length(2)
        assert ids[14] == EMPTY_ID  # volume slot
        assert sequence_categories(vocab.info_layout)[13] == "topology"

    def test_layout_mismatch_raises(self):
        with pytest.raises(VocabularyError):
            tokenize_crystal(225, parse_formula("NaCl"),
                             InformaticsFields(topology="pcu.cat0"), VOCAB)

    def test_sequence_length_constant_for_layout(self):
        for sg, formula in ((1, "Si"), (225, "NaCl"), (194, "Ca(OH)2")):
            ids = tokenize_crystal(sg, parse_formula(formula), None, VOCAB)
            assert len(ids) == 33

    def test_space_group_ids_are_each_tokens_id_looked_up_once(self):
        lacking = TokenVocabulary({"number": ["1", "2"], "centering": ["P"]},
                                  (), VOCAB.binning)
        for vocab in (VOCAB, lacking):
            for number in range(1, 231):
                record = lookup_space_group(number)
                want = tuple(
                    EMPTY_ID if category == "directional"
                    and token == EMPTY_SLOT else vocab.id_of(category, token)
                    for category, token in zip(SG_CATEGORIES,
                                                record.token_strings()))
                ids = vocab.space_group_ids(number)
                assert ids == want and vocab.space_group_ids(number) is ids
        # a cached group does not admit an invalid number equal to it
        with pytest.raises(InvalidSpaceGroupError):
            VOCAB.space_group_ids(True)

    def test_injective_on_distinct_groups(self):
        comp = parse_formula("Si")
        ids = {tokenize_crystal(n, comp, None, VOCAB) for n in range(1, 231)}
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

    def test_unreadable_number_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("H 0.1 0.2\nHe 0.1 zz\n")
        message = f"{path}:2: could not convert string to float: 'zz'"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
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
        ids = tokenize_crystal(sg, comp, None, VOCAB)
        matrix = embed_formula(comp, self.TABLE)
        return (ids, *assemble_batch(np.array([ids]), [matrix],
                                     self.token_embedding, self.proj_w,
                                     self.proj_b, self.positional))

    def test_output_shape(self):
        _, x, mask = self.assemble()
        assert x.shape == (1, 33, 16)
        assert mask.shape == (1, 33)

    def test_pad_rows_are_zero(self):
        ids, x, _ = self.assemble()
        pads = np.asarray(ids) == PAD_ID
        assert (x.data[0, pads] == 0).all()

    def test_discrete_positions_get_token_plus_positional(self):
        ids, x, _ = self.assemble()
        expected = (self.token_embedding.data[ids[0]]
                    + self.positional.data[0])
        np.testing.assert_allclose(x.data[0, 0], expected)

    def test_formula_positions_get_projection_plus_positional(self):
        comp = parse_formula("NaCl")
        _, x, _ = self.assemble()
        matrix = embed_formula(comp, self.TABLE)
        row = matrix[0] @ self.proj_w.data + self.proj_b.data \
            + self.positional.data[13]
        np.testing.assert_allclose(x.data[0, 13], row)

    def test_zero_formula_row_projects_to_bias(self):
        projected = np.zeros(9) @ self.proj_w.data + self.proj_b.data
        np.testing.assert_array_equal(projected, self.proj_b.data)

    def test_deterministic(self):
        _, x1, _ = self.assemble()
        _, x2, _ = self.assemble()
        np.testing.assert_array_equal(x1.data, x2.data)

    def test_attention_mask_marks_pads(self):
        _, _, mask = self.assemble(formula="Si")
        assert mask.sum() == 1 + 12 + 1


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
        ids, mats = [], []
        for sg, formula in self.BATCHES[name]:
            comp = parse_formula(formula)
            ids.append(tokenize_crystal(sg, comp, None, VOCAB))
            mats.append(embed_formula(comp, self.TABLE))
        return np.array(ids), mats

    def params(self, dtype):
        rng = np.random.default_rng(5)
        shapes = ((VOCAB.size, 16), (self.TABLE.dimension + 1, 16), (16,),
                  (64, 16))
        return [Tensor.parameter(rng.normal(size=shape).astype(dtype), name)
                for name, shape in zip(EMBED_PARAMS, shapes)]

    @staticmethod
    def widths(tokens):
        mask = tokens != PAD_ID
        attended = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
        start = mask.shape[1] - N_FORMULA_SLOTS
        return sorted({start + 1, attended, mask.shape[1]})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_width_equals_leading_columns_of_full_width(self, name, dtype):
        tokens, mats = self.inputs(name)
        for width in self.widths(tokens):
            results = []
            for narrow in (False, True):
                params = self.params(dtype)
                if narrow:
                    matrix, mask = assemble_batch(tokens, mats, *params,
                                                  width=width)
                else:
                    matrix, mask = assemble_batch(tokens, mats, *params)
                    matrix = matrix[:, :width]
                g = np.random.default_rng(6).normal(size=matrix.shape)
                data = matrix.data.tobytes()
                matrix.backward(g.astype(dtype))
                results.append((data, mask[:, :width],
                                [p.grad.tobytes() for p in params]))
            (full, full_mask, full_grads), (data, mask, grads) = results
            assert matrix.shape == (len(tokens), width, 16)
            assert data == full, width
            np.testing.assert_array_equal(mask, full_mask)
            for param, grad, ref in zip(EMBED_PARAMS, grads, full_grads):
                assert grad == ref, (width, param)

    @pytest.mark.parametrize("width", [0, 13, 34])
    def test_width_outside_formula_slots_raises(self, width):
        tokens, mats = self.inputs("short")
        assert tokens.shape[1] - N_FORMULA_SLOTS == 13
        with pytest.raises(EmbeddingError):
            assemble_batch(tokens, mats, *self.params(np.float64),
                           width=width)
