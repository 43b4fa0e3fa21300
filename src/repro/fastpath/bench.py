"""The IMIX frame pool the benchmark of record draws its traffic from.

``perfbench/run.py`` builds every workload's pool with
``standard_workloads(frames, seed=seed)["imix"]()``; this module keeps
that one builder where it imports it.  The next change to the
benchmark moves the call to :func:`repro.workloads.ppp_frame_contents`
and deletes this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = ["standard_workloads"]


def standard_workloads(
    frames: int, *, seed: int = 0
) -> Dict[str, Callable[[], List[bytes]]]:
    """``{"imix": builder}``: ``frames`` IMIX IPv4-in-PPP frame contents."""
    from repro.workloads.packets import ppp_frame_contents

    def imix() -> List[bytes]:
        return ppp_frame_contents(frames, seed=seed)

    return {"imix": imix}
