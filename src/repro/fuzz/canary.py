"""Test-only canary bugs injected behind hidden environment flags.

**Leaked-hold canary** (``REPRO_DSSD_FUZZ_CANARY``): the executor
installs a wrapper that reproduces the PR-3 bug class on purpose: a
TRIM of 5+ pages silently steals one host queue slot and never returns
it -- exactly the kind of interrupt-path leak the checkpoint quiescence
guards and the fuzzer's leaked-hold oracle exist to catch.
``tests/test_fuzz.py`` asserts the fuzzer discovers this within a
bounded execution budget and ddmin-shrinks it to a handful of ops; with
the flag unset the minimized repro must replay clean.

**Differential canary** (``REPRO_DSSD_FUZZ_DIFF_CANARY``): a seeded
*cross-architecture* bug for validating the differential harness.  On
the ``baseline`` preset only, a TRIM of 4+ pages is quietly shortened
by one page -- the classic off-by-one in a range deallocation.  Both
architectures stay individually self-consistent (every per-arch oracle
passes), so only the baseline-vs-dssd end-state comparison can see it:
the last trimmed LPN stays mapped on baseline and unmapped on dssd,
an ``arch_divergence`` the fuzzer must find and shrink to a single op.

Never set these flags outside the validation tests.
"""

from __future__ import annotations

import os

__all__ = ["CANARY_ENV", "DIFF_CANARY_ENV", "canary_enabled",
           "diff_canary_enabled", "maybe_install"]

CANARY_ENV = "REPRO_DSSD_FUZZ_CANARY"
DIFF_CANARY_ENV = "REPRO_DSSD_FUZZ_DIFF_CANARY"


def canary_enabled() -> bool:
    """Whether the hidden leaked-hold bug should be injected."""
    return os.environ.get(CANARY_ENV, "") == "1"


def diff_canary_enabled() -> bool:
    """Whether the hidden baseline-only trim off-by-one is injected."""
    return os.environ.get(DIFF_CANARY_ENV, "") == "1"


def maybe_install(ssd) -> None:
    """Wrap ``ssd.ftl.submit`` with the enabled canary bugs (if any)."""
    if canary_enabled():
        _install_leak(ssd)
    if diff_canary_enabled() and ssd.config.arch.value == "baseline":
        _install_trim_off_by_one(ssd)


def _install_leak(ssd) -> None:
    from ..ftl.request import TRIM

    real_submit = ssd.ftl.submit
    slots = ssd.host._slots

    def leaky_submit(request):
        if request.op == TRIM and request.n_pages >= 5:
            # The bug: an extra slot acquired on a side path with no
            # matching release/cancel.  The grant fires immediately
            # whenever a slot is free and is then dropped on the floor.
            slots.acquire(owner="canary-leak")
        return real_submit(request)

    ssd.ftl.submit = leaky_submit


def _install_trim_off_by_one(ssd) -> None:
    from ..ftl.request import TRIM

    real_submit = ssd.ftl.submit

    def short_trim_submit(request):
        if request.op == TRIM and request.n_pages >= 4:
            # The bug: the deallocation loop runs one page short, so
            # the final LPN of the range survives the trim -- but only
            # on this architecture.
            request.n_pages -= 1
        return real_submit(request)

    ssd.ftl.submit = short_trim_submit
