"""Host-speed sampling, so that timings on a shared host can be compared.

On a host shared with other work, the same code runs up to ~1.5x slower
while a neighbour is busy, and that state changes every fraction of a
second.  A ``SpeedSampler`` runs a small fixed numpy kernel (the probe) from
a SIGALRM handler every ``interval`` seconds while a timed section runs, so
the probe samples the host's speed at the very moments the section ran.  The
section's time is then rescaled to the reference speed:

    scaled = (wall - time spent in probes) * PROBE_REF_S / mean probe time

The probe does not use riccati_place, so a change to the library moves the
section's wall time but not the probe.  The handler runs between Python
bytecodes (never inside a numpy call), in the main thread.
"""

import signal
import time

import numpy as np

# Median probe time on the reference host (2 vCPUs of an Intel Xeon VM at
# 2.0 GHz, BLAS on one thread), taken with the probe's inputs warm in cache.
PROBE_REF_S = 1.2e-3

_rng = np.random.default_rng(0)
# A stack of 16x16 matrices for a batched SVD (the semigroup certificate's
# kernel) and a 128x128 product (the Riccati kernel's BLAS-3 work).
_STACK = _rng.standard_normal((48, 16, 16))
_SQUARE = _rng.standard_normal((128, 128))


def probe():
    np.linalg.svd(_STACK, compute_uv=False)
    _SQUARE @ _SQUARE


probe()  # the first call pays LAPACK's lazy set-up; keep it out of the samples


class SpeedSampler:
    """Time a section with host-speed probes interleaved.

    ``start()`` begins sampling; ``stop()`` ends it and returns a dict with
    ``probe_s`` (total time spent in probes), ``probe_mean_s``, ``probes``
    (their count) and ``scale`` (``PROBE_REF_S / probe_mean_s``).
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        spent = sum(self.samples)
        if not self.samples:  # shorter than one interval: probe right after
            self._handler(None, None)
        mean = sum(self.samples) / len(self.samples)
        return {"probe_s": spent, "probe_mean_s": mean,
                "probes": len(self.samples), "scale": PROBE_REF_S / mean}


def scaled(wall_s, sample):
    """Rescale a wall time measured under ``sample`` to the reference speed."""
    return (wall_s - sample["probe_s"]) * sample["scale"]
