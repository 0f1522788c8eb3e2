"""QLOVE core: the paper's contribution.

Modules:
  - :mod:`repro.core.quantile` — the paper's ``ceil(phi*N)`` rank convention.
  - :mod:`repro.core.compression` — significant-digit value quantization.
  - :mod:`repro.core.summary` — per-sub-window summaries.
  - :mod:`repro.core.subwindow` — Level-1 tumbling builder (Algorithm 1).
  - :mod:`repro.core.fewk` — few-k merging (top-k + sample-k, Section 4).
  - :mod:`repro.core.burst` — Mann-Whitney U burst detection (Section 4.3).
  - :mod:`repro.core.qlove` — Level-2 sliding merge + the QLOVE operator.
"""
from repro.core.qlove import QloveOperator  # noqa: F401
from repro.core.fewk import FewKConfig  # noqa: F401
