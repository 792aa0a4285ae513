"""Low-level builders for code that composes its own simulator.

``device_config``/``build_device``/``build_stack`` assemble a fresh
device (preconditioned unless told otherwise) and host stack, so runs
are independent and deterministic for a given seed.  To run a whole
measurement, build a :class:`repro.api.Testbed` and pass a
:class:`repro.api.JobConfig`.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.host.costs import DEFAULT_COSTS, SoftwareCosts
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.sim.engine import Simulator
from repro.spdk.stack import SpdkStack
from repro.ssd.config import SsdConfig
from repro.ssd.device import SsdDevice
from repro.ssd.presets import build_nvme_preset, build_ull_preset


class DeviceKind(enum.Enum):
    """The paper's two SSDs (the preset subset of the device registry).

    The full zoo — these two plus planar MLC, multi-step TLC, QLC, and
    the Optane-like PM device — lives in :mod:`repro.ssd.registry`;
    anything that accepts a device accepts a registry name or a spec
    path too.
    """

    ULL = "ull"
    NVME = "nvme"


class StackKind(enum.Enum):
    """Which host I/O path drives the device."""

    KERNEL = "kernel"
    SPDK = "spdk"


def device_config(kind: DeviceKind, **overrides) -> SsdConfig:
    """The preset config for ``kind`` (keyword overrides pass through).

    Preset path only; for registry names and spec files use
    :func:`repro.ssd.registry.resolve_config`.
    """
    if kind is DeviceKind.ULL:
        return build_ull_preset(**overrides)
    return build_nvme_preset(**overrides)


def build_device(
    sim: Simulator,
    kind: DeviceKind,
    *,
    precondition: float = 1.0,
    seed: int = 42,
    config: Optional[SsdConfig] = None,
) -> SsdDevice:
    """A fresh device, optionally preconditioned (whole-drive fill)."""
    device = SsdDevice(sim, config or device_config(kind), seed=seed)
    if precondition > 0:
        device.precondition(precondition)
    return device


def build_stack(
    sim: Simulator,
    device: SsdDevice,
    *,
    stack: StackKind = StackKind.KERNEL,
    completion: CompletionMethod = CompletionMethod.INTERRUPT,
    costs: Optional[SoftwareCosts] = None,
    seed: int = 11,
):
    """The host path: kernel (with a completion method) or SPDK."""
    if stack is StackKind.SPDK:
        return SpdkStack(sim, device, costs=costs or DEFAULT_COSTS)
    return KernelStack(
        sim, device, completion=completion, costs=costs or DEFAULT_COSTS, seed=seed
    )

