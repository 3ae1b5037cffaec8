"""The benchmark's workloads: the `tanisaki` CLI invocations each one makes.

A workload is a list of invocations run one after another.  Each invocation
is the argument list of one `tanisaki` call plus what it needs before it
runs: an empty cache directory, or the warm one filled during set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import partitions_of

MEMBERSHIP_SUITES = ("gamma", "lambda", "truncation", "stability")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]  # CLI arguments; the cache directory is appended at run time
    cache: str | None  # None, "fresh" (a new empty directory) or "warm" (the set-up cache)

    def with_cache(self, cache_dir: str | None) -> list[str]:
        if self.cache is None:
            return list(self.argv)
        return [*self.argv, "--cache-dir", cache_dir]


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of a workload, in the order the seed gives."""
    if workload == "verify-n5":
        return [Invocation(("verify", "--n", "5"), None)]
    if workload == "presentation-n7":
        calls = [
            Invocation(
                ("presentation", "--partition", ",".join(map(str, p)), "--flavor", "both"),
                "fresh",
            )
            for p in partitions_of(7)
        ]
        random.Random(seed).shuffle(calls)
        return calls
    if workload == "membership-n5-warm":
        argv = ["verify", "--n", "5"]
        for suite in MEMBERSHIP_SUITES:
            argv += ["--suite", suite]
        return [Invocation(tuple(argv), "warm")]
    raise ValueError(f"unknown workload {workload!r}")


def setup_fill(workload: str) -> Invocation | None:
    """The untimed call that fills the warm cache: the workload's own warm
    call, or None if the workload needs no warm cache."""
    return next((inv for inv in invocations(workload, 0) if inv.cache == "warm"), None)


WORKLOADS = ("verify-n5", "presentation-n7", "membership-n5-warm")
