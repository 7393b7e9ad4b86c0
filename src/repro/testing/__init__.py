"""Fault-injection test harness (importable by tests and subprocesses).

This package ships *with* the library rather than under ``tests/`` so
that worker subprocesses — spawned by scan pools or
:class:`CrashingWorker` — can import the same fault points and fixtures
the test process armed. Production code paths call
:func:`repro.testing.maybe_fail` at their crash-relevant boundaries; with
no hooks installed and no ``REPRO_FAULTS`` in the environment that is a
dictionary miss and an environment read, nothing more.

The toolkit half (:class:`FlakyLayer`, :class:`CrashingWorker`,
:class:`TornWriteFS`, probe detectors, the reference scan, equality
helpers) imports the ``repro.nn`` stack, which itself arms fault points
from :mod:`repro.testing.faults` — so those names load lazily (PEP 562)
to keep the import graph acyclic.
"""

from repro.testing.faults import (
    FAULTS_ENV,
    InjectedFault,
    clear_faults,
    fail_on_calls,
    install_fault,
    maybe_fail,
    parse_spec,
)

_TOOLKIT_NAMES = (
    "CrashingWorker",
    "DensityProbeDetector",
    "FlakyLayer",
    "TensorProbeDetector",
    "TornWriteFS",
    "histories_equal",
    "reference_scan",
    "scan_results_close",
    "scan_results_equal",
    "weights_equal",
)

__all__ = [
    "FAULTS_ENV",
    "InjectedFault",
    "clear_faults",
    "fail_on_calls",
    "install_fault",
    "maybe_fail",
    "parse_spec",
    *_TOOLKIT_NAMES,
]


def __getattr__(name: str):
    if name in _TOOLKIT_NAMES:
        from repro.testing import toolkit

        return getattr(toolkit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
