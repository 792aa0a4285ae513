"""The block-device facade over the SSD controller.

:class:`SsdDevice` is what the NVMe protocol layer (and the examples)
talk to: ``submit()`` a read or write covering a byte range, get back a
request whose ``done`` event fires when the device would have raised its
completion.  All protocol costs (SQ fetch, CQE, MSI, host software) live
*above* this layer; the device covers firmware, DRAM, flash, channels,
and the PCIe data DMA.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, List, Optional

from repro.obs.core import current_obs
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.ssd.config import UNIT_SIZE, SsdConfig
from repro.ssd.controller import SsdController
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.ftl.core import PageMappedFtl
    from repro.obs.tracer import IoTrace
    from repro.ssd.controller import ControllerStats
    from repro.ssd.power import PowerMeter


class IoOp(enum.Enum):
    """Block I/O operation."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"  # dataset management / deallocate


@dataclass
class DeviceRequest:
    """One outstanding block request and its lifecycle timestamps."""

    op: IoOp
    offset: int
    nbytes: int
    submit_ns: int
    done: Event
    device_done_ns: Optional[int] = None
    lpns: List[int] = field(default_factory=list)

    @property
    def device_latency_ns(self) -> int:
        if self.device_done_ns is None:
            raise RuntimeError("request not complete yet")
        return self.device_done_ns - self.submit_ns


class SsdDevice:
    """A simulated SSD serving byte-addressed block requests."""

    def __init__(
        self,
        sim: Simulator,
        config: SsdConfig,
        *,
        seed: int = 42,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.controller = SsdController(sim, config, seed=seed, faults=faults)
        self.completed_reads = 0
        self.completed_writes = 0
        self.completed_trims = 0
        obs = current_obs()
        if obs.enabled:
            from repro.ssd.registry import spec_label

            obs.label_device(spec_label(config))

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.controller.ftl.capacity_bytes

    @property
    def logical_pages(self) -> int:
        return self.controller.ftl.logical_pages

    @property
    def stats(self) -> "ControllerStats":
        return self.controller.stats

    @property
    def power(self) -> "PowerMeter":
        return self.controller.power

    @property
    def ftl(self) -> "PageMappedFtl":
        return self.controller.ftl

    # ------------------------------------------------------------------
    def submit(
        self, op: IoOp, offset: Bytes, nbytes: int, *, trace: "Optional[IoTrace]" = None
    ) -> DeviceRequest:
        """Issue a request; ``request.done`` fires at device completion."""
        lpns = self._lpns_of(offset, nbytes)
        request = DeviceRequest(
            op=op,
            offset=offset,
            nbytes=nbytes,
            submit_ns=self.sim.now,
            done=Event(self.sim),
            lpns=lpns,
        )
        if op is IoOp.READ:
            self._submit_read(request, trace)
        elif op is IoOp.WRITE:
            self.sim.process(self._write_flow(request, trace))
        else:
            self._submit_trim(request)
        return request

    def read(self, offset: Bytes, nbytes: int) -> DeviceRequest:
        return self.submit(IoOp.READ, offset, nbytes)

    def write(self, offset: Bytes, nbytes: int) -> DeviceRequest:
        return self.submit(IoOp.WRITE, offset, nbytes)

    def trim(self, offset: Bytes, nbytes: int) -> DeviceRequest:
        """Deallocate a range (NVMe Dataset Management).

        Pure FTL metadata work: the mapped pages are invalidated, which
        both frees the LBAs and makes future GC cheaper (fewer valid
        pages to migrate).  No flash operation is needed.
        """
        return self.submit(IoOp.TRIM, offset, nbytes)

    # ------------------------------------------------------------------
    def precondition(self, fraction: float = 1.0) -> int:
        """Instantly fill the first ``fraction`` of the logical space.

        Mutates FTL state without consuming simulated time — the standard
        "write the whole drive once" preparation the paper performs
        before its GC and read experiments.  Applied in bulk through
        :meth:`~repro.ftl.core.PageMappedFtl.fill_sequential` (state
        identical to the write loop).  Returns the pages written.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        count = int(self.logical_pages * fraction)
        ftl = self.controller.ftl
        ftl.fill_sequential(count)
        ftl.reset_statistics()
        return count

    # ------------------------------------------------------------------
    def _lpns_of(self, offset: int, nbytes: int) -> List[int]:
        if offset < 0 or nbytes <= 0:
            raise ValueError("offset must be >= 0 and nbytes > 0")
        if offset % UNIT_SIZE:
            raise ValueError(f"offset must be {UNIT_SIZE}-aligned: {offset}")
        if offset + nbytes > self.capacity_bytes:
            raise ValueError(
                f"request [{offset}, {offset + nbytes}) exceeds capacity "
                f"{self.capacity_bytes}"
            )
        first = offset // UNIT_SIZE
        return list(range(first, first + self.config.units_of(nbytes)))

    def _submit_trim(self, request: DeviceRequest) -> None:
        ftl = self.controller.ftl
        for lpn in request.lpns:
            ftl.trim(lpn)
        done_at = (
            self.sim.now
            + self.config.write_fw_ns
            + self.config.completion_fw_ns
        )
        self.sim.schedule_at(done_at, self._complete, request, done_at)

    def _submit_read(
        self, request: DeviceRequest, trace: "Optional[IoTrace]" = None
    ) -> None:
        controller = self.controller
        internal_done = max(
            controller.read_unit(lpn, trace=trace) for lpn in request.lpns
        )
        dma_start, dma_done = controller.pcie.reserve(
            self.config.pcie_transfer_ns(request.nbytes), not_before=internal_done
        )
        done_at = dma_done + self.config.completion_fw_ns
        if trace is not None:
            # Data moves host-ward, then completion firmware wraps up.
            trace.wait("ssd.pcie", "dma_backlog", internal_done, dma_start)
            trace.phase("dma", dma_start)
            trace.annotate("pcie_dma", dma_start, dma_done, nbytes=request.nbytes)
            trace.phase("ctrl", dma_done)
        self.sim.schedule_at(done_at, self._complete, request, done_at)

    def _write_flow(
        self, request: DeviceRequest, trace: "Optional[IoTrace]" = None
    ) -> Generator[Event, Any, None]:
        config = self.config
        controller = self.controller
        yield self.sim.sleep(config.write_fw_ns)
        dma_start, dma_done = controller.pcie.reserve(
            config.pcie_transfer_ns(request.nbytes), not_before=self.sim.now
        )
        if trace is not None:
            trace.wait("ssd.pcie", "dma_backlog", self.sim.now, dma_start)
            trace.phase("dma", dma_start)
            trace.annotate("pcie_dma", dma_start, dma_done, nbytes=request.nbytes)
        if dma_done > self.sim.now:
            yield self.sim.sleep(dma_done - self.sim.now)
        if trace is not None:
            trace.phase("write_buffer", self.sim.now)
        for lpn in request.lpns:
            yield from controller.write_unit(lpn, trace=trace)
        stall = controller.roll_write_stall()
        if trace is not None:
            if stall:
                trace.phase("write_stall", self.sim.now)
                trace.phase("ctrl", self.sim.now + stall)
                trace.wait(
                    "ssd.firmware", "write_stall", self.sim.now, self.sim.now + stall
                )
            else:
                trace.phase("ctrl", self.sim.now)
        yield self.sim.sleep(stall + config.dram_hit_ns + config.completion_fw_ns)
        self._complete(request, self.sim.now)

    def _complete(self, request: DeviceRequest, done_at: int) -> None:
        request.device_done_ns = done_at
        if request.op is IoOp.READ:
            self.completed_reads += 1
        elif request.op is IoOp.WRITE:
            self.completed_writes += 1
        else:
            self.completed_trims += 1
        request.done.succeed(request)
