"""Distributed dataflow layer: QLOVE's windowing algebra expressed in the
DataFrame / Spark SQL API (see DESIGN.md section 3).

  - :mod:`repro.sparklayer.events` — event-stream DataFrames and sub-window
    assignment.
  - :mod:`repro.sparklayer.level1` — Level-1 frequency state over raw values
    (``groupBy(sub_id, value).count()``), brought to the driver by
    ``toArrow()`` and summarized there with the kernel's ``quantize_sig``
    and ``summarize``.
  - :mod:`repro.sparklayer.level2` — Level-2 sliding mean as one window-frame
    pass over the summaries.
  - :mod:`repro.sparklayer.qlove_spark` — end-to-end QLOVE estimates.
  - :mod:`repro.sparklayer.streaming` — Structured Streaming stateful QLOVE.
"""
