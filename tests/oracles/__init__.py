"""Reference implementations kept only as test oracles.

Each module here is a slower, simpler twin of a production path that
must produce the same bytes:

* :mod:`.materialize_wpa` -- whole-program analysis over expanded
  routine bodies, the twin of the summary-only (thin) WPA driver;
* :mod:`.reference_codec` -- the per-field IL codec, the twin of the
  batched codec in :mod:`repro.naim.compaction` and the readable
  specification of its wire format.

Nothing under ``src/`` imports them.
"""
