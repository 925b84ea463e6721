"""The in-place IVF re-rank differential on float32 catalogues.

Models serve in float32, so the index stores float32 cell blocks and the
re-rank runs sgemv, whose tail kernel follows the same four-row rule as
dgemv (``ROW_BLOCK``; ``docs/retrieval.md``, "Layout"). This module
collects every test of ``test_rerank_bits.py`` with the ``dtype``
fixture overridden: ids must equal the gathered oracle's, and at full
probe every scanned score must have the bytes of the full-height float32
``vectors @ q``.
"""

import numpy as np
import pytest

from .test_rerank_bits import (  # noqa: F401 - collected here with float32 catalogues
    test_cell_major_layout,
    test_full_probe_scores_have_full_height_bytes,
    test_ids_equal_gathered_oracle,
    test_ivfpq_position_gather_equals_gathered_oracle,
    test_row_answer_does_not_depend_on_batch,
)


@pytest.fixture
def dtype():
    return np.float32
