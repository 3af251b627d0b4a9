"""A yardstick for the speed of the CPU a process is running on.

On a shared host a CPU's speed drifts by up to about 2x in phases that
last from a fraction of a second to tens of seconds, and CPU time drifts
with it.  A ``Sampler`` thread therefore wakes every ``PERIOD_S`` of
wall-clock time and times a fixed pure-Python chunk of work, which takes
the interpreter lock from the job for a moment and runs on the same CPU
(the benchmark pins its processes to one).  The benchmark subtracts the
chunks' CPU time from the job's and scales the rest by ``speed``: the
chunk's time on the reference machine over its time then, averaged over
the chunks taken during the job.  The chunk never touches refltower, so
a change to the program moves the job times and not the yardstick.

``REFERENCE_S`` is the chunk's CPU time on the reference machine (a
2-vCPU Intel Xeon VM, Python 3.11) in its fast phases, so scaled times
read as seconds on that machine.

Every worker and CLI child imports this module and starts its sampler
before it imports refltower, so it imports nothing heavy.
"""

import threading
import time

REFERENCE_S = 0.000175
PERIOD_S = 0.01

# A job with fewer chunks of its own is scaled by the last MIN_SAMPLES
# chunks up to its end.
MIN_SAMPLES = 3


def _chunk() -> int:
    d = {}
    for i in range(1500):
        d[i % 200] = d.get(i % 200, 0) + i * i
    return len(d)


class Sampler(threading.Thread):
    """Chunk timings, in CPU seconds of the sampling thread.

    A thread rather than a timer signal: a signal handler interrupts the
    program's system calls, and large writes to a pipe interrupted that
    way have been seen to lose output.  A process that waits takes samples
    too, which only adds to the recent ones.
    """

    def __init__(self):
        super().__init__(name="calibrate", daemon=True)
        self.samples = []
        self._done = threading.Event()

    def run(self):
        _chunk()  # the interpreter specialises the chunk's bytecode on its first pass
        while not self._done.wait(PERIOD_S):
            c0 = time.thread_time()
            _chunk()
            self.samples.append(time.thread_time() - c0)

    def stop(self):
        self._done.set()
        self.join()


def speed(samples: list, earlier: list = ()) -> float:
    """Mean of REFERENCE_S / chunk time over a job's samples, topped up
    with the latest earlier ones when the job has fewer than MIN_SAMPLES."""
    use = list(samples)
    if len(use) < MIN_SAMPLES:
        use = (list(earlier) + use)[-MIN_SAMPLES:]
    if not use:
        return 1.0
    return sum(REFERENCE_S / s for s in use) / len(use)
