"""The benchmark's open-loop client: fixed-rate arrivals (Poisson or evenly
spaced), each timed from when it was due.

A request's latency runs from its *intended* arrival on the schedule, not
from the moment the generator got round to submitting it.  The generator
shares the event loop (and the interpreter lock) with the service, so it
can run late; timing from the actual submit would hide exactly the stall
that made it late (coordinated omission).  How late it ran is reported
separately as lag.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from typing import Callable, List, Optional

import numpy as np

#: Lead time between building the schedule and its first arrival.
START_DELAY_S = 0.005
#: How long past the last arrival the client waits for results; a request
#: still unresolved then is lost, and counted as failed.
DRAIN_S = 15.0


def poisson_schedule(rate_rps: float, seconds: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process holding ``rate * seconds``.

    A Poisson process conditioned on its count is that many sorted uniform
    points, so every run of a workload offers exactly the same number of
    requests over exactly the same span; only their placement varies.
    """
    count = max(int(round(rate_rps * seconds)), 1)
    return np.sort(rng.uniform(0.0, seconds, size=count))


def uniform_schedule(rate_rps: float, seconds: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Evenly spaced arrival offsets (s) at ``rate``, with a seeded phase."""
    count = max(int(round(rate_rps * seconds)), 1)
    return (np.arange(count) + rng.uniform()) / rate_rps


#: Arrival processes by name.
SCHEDULES = {"poisson": poisson_schedule, "uniform": uniform_schedule}


@dataclasses.dataclass
class OpenLoopResult:
    """Per-request outcome arrays, indexed in schedule order (loop clock)."""

    due: np.ndarray
    submitted: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    resolutions: np.ndarray
    refused: np.ndarray
    results: List[Optional[np.ndarray]]
    errors: List[str]

    @property
    def sent(self) -> int:
        return int(self.due.size)

    @property
    def failed(self) -> int:
        """Requests refused at submit or resolved with an error."""
        return int(self.sent - np.count_nonzero(self.ok))

    def latency_ms(self) -> np.ndarray:
        """Intended-arrival to result, for requests that succeeded."""
        return (self.done[self.ok] - self.due[self.ok]) * 1e3

    def lag_ms(self) -> np.ndarray:
        """How late the generator submitted each request."""
        return (self.submitted - self.due) * 1e3


async def run_open_loop(submit: Callable[[int], "asyncio.Future"],
                        schedule: np.ndarray) -> OpenLoopResult:
    """Submit request ``i`` at ``schedule[i]`` seconds and await them all.

    ``submit(i)`` enqueues request ``i`` and returns its future; raising
    counts the request as refused.  A generator that falls behind submits
    the overdue requests back to back — their latency still counts from
    the schedule.  Futures still pending :data:`DRAIN_S` after the last
    arrival are cancelled and left with zero resolutions.
    """
    loop = asyncio.get_running_loop()
    count = int(schedule.size)
    t0 = loop.time() + START_DELAY_S
    due = t0 + np.asarray(schedule, dtype=np.float64)
    submitted = np.zeros(count)
    done = np.full(count, np.nan)
    ok = np.zeros(count, dtype=bool)
    resolutions = np.zeros(count, dtype=np.int64)
    refused = np.zeros(count, dtype=bool)
    results: List[Optional[np.ndarray]] = [None] * count
    errors: List[str] = []
    callbacks = {}

    def resolved(index: int, future: "asyncio.Future") -> None:
        resolutions[index] += 1
        done[index] = loop.time()
        if future.cancelled():
            errors.append(f"request {index} cancelled")
        elif future.exception() is not None:
            errors.append(f"request {index}: {future.exception()!r}")
        else:
            ok[index] = True
            results[index] = future.result()

    for index in range(count):
        delay = due[index] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        submitted[index] = loop.time()
        try:
            future = submit(index)
        except Exception as exc:  # noqa: BLE001 — a refusal is an outcome
            refused[index] = True
            errors.append(f"request {index} refused: {exc!r}")
            continue
        callback = functools.partial(resolved, index)
        future.add_done_callback(callback)
        callbacks[future] = (index, callback)
    if callbacks:
        _, pending = await asyncio.wait(list(callbacks),
                                        timeout=due[-1] - loop.time() + DRAIN_S)
        for future in pending:
            # Unhook first, so cancelling does not count as a resolution.
            index, callback = callbacks[future]
            future.remove_done_callback(callback)
            future.cancel()
            errors.append(f"request {index} unresolved {DRAIN_S:g} s after "
                          "the last arrival")
    # Done callbacks are scheduled, not run, when a future resolves; yield
    # once so the last ones have fired before the arrays are read.
    await asyncio.sleep(0)
    return OpenLoopResult(due=due, submitted=submitted, done=done, ok=ok,
                          resolutions=resolutions, refused=refused,
                          results=results, errors=errors)
