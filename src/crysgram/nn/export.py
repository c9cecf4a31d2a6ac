"""Plot-ready serialization of recorded attention weights."""

import numpy as np

from ..errors import CrysgramError


def export_attention(attn_map, labels, layers=None):
    """Nested-array document of one record's attention weights.

    ``attn_map`` must hold exactly one record (CrysgramError otherwise),
    and ``labels`` names each of its positions, a label per token id.
    ``layers`` picks 0-based layer indices (negative indices count from
    the end, -1 being the last layer); default is every recorded layer.
    Requires a forward pass run with attention recording enabled.
    """
    if attn_map is None:
        raise CrysgramError("attention recording was disabled for this pass")
    record = attn_map.one_record()
    n = len(record)
    if layers is None:
        selected = list(range(n))
    else:
        selected = [index if index >= 0 else n + index for index in layers]
        for index in selected:
            if not 0 <= index < n:
                raise CrysgramError(f"layer {index} outside 0..{n - 1}")
    mask = np.asarray(attn_map.attention_mask[0], dtype=int)
    if len(labels) != len(mask):
        raise CrysgramError(
            f"{len(labels)} labels for {len(mask)} attention positions")
    return {
        "format_version": 1,
        "token_labels": list(labels),
        "n_heads": int(record[0].shape[0]),
        "layers": {str(index): record[index].tolist() for index in selected},
        "attention_mask": mask.tolist(),
    }
