"""GStreamManager: producer–consumer GPU execution with pipelining (§5).

Flink tasks *produce* GWork; GStreams *consume* it.  A GStream is a
"high-level virtual computing resource which [is] similar to threads for
CPUs" — a simulation process bound to one GPU that executes GWork through
the **three-stage pipeline**: host-to-device transfers (H2D), kernel
execution (K) and device-to-host transfers (D2H) run as three coupled stage
processes over the work's page-sized blocks, so block *k*'s kernel overlaps
block *k+1*'s upload and block *k−1*'s download.  Whether H2D and D2H can
overlap each other is decided by the device's copy-engine count (§4.1.2).

Components (Fig. 4): the **GWork Scheduler** (Algorithm 5.1, in
:mod:`repro.core.scheduling`), the **GWork Pool** (one FIFO queue per GPU),
and the **GStream Pool** (streams grouped into per-GPU bulks, each stream
stealing per Algorithm 5.2 when it runs dry).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Hashable, List, Optional

import numpy as np

from repro.common.errors import ConfigError, DeviceFaultError, InterruptError
from repro.common.resources import Store
from repro.common.simclock import Environment, Event
from repro.core.channels import CUDAWrapper
from repro.core.gmemory import CacheRegion, GMemoryManager
from repro.core.gwork import GWork, KernelStage, PRIMARY, STAGE_OUT
from repro.core.hbuffer import Block, HBuffer
from repro.core.scheduling import locality_keys, schedule_work, steal_work
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import DeviceBuffer
from repro.obs import Observability

#: Depth of the inter-stage queues: how many blocks may be in flight between
#: two stages.  2 suffices for full overlap of a 3-stage linear pipeline.
PIPELINE_DEPTH = 2


class GStream:
    """One virtual stream: a consumer process bound to a device."""

    def __init__(self, env: Environment, manager: "GStreamManager",
                 device_index: int, stream_index: int):
        self.env = env
        self.manager = manager
        self.device_index = device_index
        self.stream_index = stream_index
        self.mailbox: Store = Store(env, capacity=1)
        self.works_executed = 0
        self.process = env.process(
            self._run(), name=f"gstream-{device_index}-{stream_index}")

    @property
    def device(self) -> GPUDevice:
        return self.manager.devices[self.device_index]

    def _run(self) -> Generator[Event, None, None]:
        while True:
            work = yield self.mailbox.get()
            if work is None:  # shutdown sentinel (tests)
                return
            while work is not None:
                yield from self._execute(work)
                if self.manager.is_blacklisted(self.device_index):
                    break  # out-of-service streams stop pulling work
                # Algorithm 5.2: steal before going idle.
                work = steal_work(self.device_index, self.manager.queues)
            self.manager.mark_idle(self)

    # -- one GWork through the three-stage pipeline --------------------------------
    def _execute(self, work: GWork) -> Generator[Event, None, None]:
        mgr = self.manager
        work.assigned_device = self.device_index
        device = self.device
        region = (mgr.gmm.region(work.app_id, self.device_index)
                  if work.cache else None)
        # Chained works may borrow an already-existing region to spill
        # oversized intermediates even when they cache nothing themselves.
        spill_region = region
        if (spill_region is None and work.stages
                and mgr.gmm.has_region(work.app_id, self.device_index)):
            spill_region = mgr.gmm.region(work.app_id, self.device_index)
        live_before = {buf.buffer_id for buf in device.memory.live_buffers()}
        tracer = mgr.obs.tracer
        with tracer.span(f"gwork:{work.execute_name}", "gpu.pipeline",
                         tracer.track(device.name,
                                      f"stream{self.stream_index}"),
                         kernel=work.execute_name, work=work.work_id,
                         cached=bool(work.cache)) as wsp:
            try:
                injected = (mgr.faults.consume_fault(self.device_index)
                            if mgr.faults is not None else None)
                if injected is not None:
                    if injected in ("gpu-hang", "pcie-timeout"):
                        # The fault is only *detected* after the driver
                        # watchdog window — the stream is stuck that long.
                        yield self.env.timeout(
                            mgr.faults.config.fault_timeout_s)
                    raise DeviceFaultError(injected, device.name)
                secondary = yield from self._stage_secondary_inputs(
                    work, device, region)
                if work.mapped_memory:
                    output_elements = yield from self._mapped_execute(
                        work, device, secondary)
                else:
                    output_elements = yield from self._pipeline(
                        work, device, region, spill_region, secondary)
            except Exception as exc:  # surface through the completion event
                # Reclaim this work's in-flight allocations (cache-region
                # buffers are unregistered views and survive): a retried work
                # must not leak the device dry.
                wsp.set(error=type(exc).__name__)
                for buf in device.memory.live_buffers():
                    if buf.buffer_id not in live_before:
                        device.memory.free(buf)
                if spill_region is not None:
                    spill_region.remove_spills(work.work_id)
                self._temp_secondary = []
                if mgr.faults is not None:
                    mgr.faults.record_device_failure(self.device_index, exc)
                if (work.completion is not None
                        and not work.completion.triggered):
                    work.completion.fail(exc)
                    # The producer may have been interrupted (its worker
                    # died) and no longer waits: an unclaimed failure must
                    # not crash the simulation loop.
                    work.completion.defused()
                self.works_executed += 1
                return
        out = work.out_buffer.derive(output_elements)
        if work.out_element_nbytes is not None:
            out.element_nbytes = work.out_element_nbytes
        self.works_executed += 1
        mgr.works_completed += 1
        mgr.obs.registry.counter("gwork.completed", device=device.name).inc()
        if work.completion is not None:
            work.completion.succeed(out)

    def _stage_secondary_inputs(self, work: GWork, device: GPUDevice,
                                region: Optional[CacheRegion]
                                ) -> Generator[Event, None, Dict[str, DeviceBuffer]]:
        """Upload non-primary operands whole (cache-aware)."""
        secondary: Dict[str, DeviceBuffer] = {}
        self._temp_secondary: List[DeviceBuffer] = []
        obs = self.manager.obs
        tracer = obs.tracer
        for name, hbuf in work.in_buffers.items():
            if name == PRIMARY:
                continue
            key = (work.cache_key, name)
            use_cache = region is not None and hbuf.cacheable
            if use_cache:
                entry = region.lookup(key)
                outcome = "hit" if entry is not None else "miss"
                tracer.instant("cache.probe", "gpu.cache",
                               tracer.track(device.name, "cache"),
                               operand=name, outcome=outcome)
                obs.registry.counter("gpu.cache.probe", device=device.name,
                                     outcome=outcome).inc()
                if entry is not None:
                    secondary[name] = entry.buffer
                    continue
                entry = region.try_insert(key, int(hbuf.nbytes))
            else:
                entry = None
            if entry is not None:
                dev_buf = entry.buffer
            else:
                dev_buf = yield from self.manager.wrapper.cuda_malloc(
                    device, int(hbuf.nbytes))
                self._temp_secondary.append(dev_buf)
            whole = Block(index=0, elements=hbuf.elements,
                          nominal_count=hbuf.nominal_count,
                          nbytes=int(hbuf.nbytes))
            window = yield from self.manager.wrapper.transfer_h2d_inline(
                device, dev_buf, whole, hbuf, work.comm_mode)
            # The engine-occupancy window is exact: spans on a copy lane
            # never overlap (queue wait is excluded, not hidden inside).
            tracer.complete("h2d", "gpu.device",
                            tracer.track(device.name, "copy:h2d"),
                            start=window[0], end=window[1],
                            nbytes=int(hbuf.nbytes), operand=name)
            obs.registry.counter("gpu.pcie.h2d.bytes",
                                 device=device.name).inc(int(hbuf.nbytes))
            obs.monitor.count("gpu.pcie.bytes", int(hbuf.nbytes),
                              device=device.name)
            secondary[name] = dev_buf
        return secondary

    def _pipeline(self, work: GWork, device: GPUDevice,
                  region: Optional[CacheRegion],
                  spill_region: Optional[CacheRegion],
                  secondary: Dict[str, DeviceBuffer]
                  ) -> Generator[Event, None, object]:
        wrapper = self.manager.wrapper
        primary = work.in_buffers[PRIMARY]
        stages = work.kernel_stages
        blocks = primary.split_blocks(self.manager.block_nbytes)
        to_kernel: Store = Store(self.env, capacity=PIPELINE_DEPTH)
        to_d2h: Store = Store(self.env, capacity=PIPELINE_DEPTH)
        results: Dict[int, object] = {}
        primary_region = region if work.primary_cached else None
        obs = self.manager.obs
        tracer = obs.tracer
        reg = obs.registry
        monitor = obs.monitor
        # Distinct lanes per engine role make the paper's overlap argument
        # visible in Perfetto: kernels on one row, each copy direction on
        # its own, cache probes as markers.
        h2d_track = tracer.track(device.name, "copy:h2d")
        d2h_track = tracer.track(device.name, "copy:d2h")
        kernel_track = tracer.track(device.name, "kernel")
        cache_track = tracer.track(device.name, "cache")
        h2d_bytes_ctr = reg.counter("gpu.pcie.h2d.bytes", device=device.name)
        d2h_bytes_ctr = reg.counter("gpu.pcie.d2h.bytes", device=device.name)
        # Pipelined executor: the producing operator may still be streaming
        # the primary input onto the host.  The H2D stage waits for each
        # device block's byte prefix before uploading (cache hits skip the
        # wait) and acknowledges consumption so backpressure credits return.
        host_stream = work.host_stream
        host_total = float(sum(b.nbytes for b in blocks)) or 1.0
        pipeline_track = tracer.track(device.name, "pipeline")

        def h2d_stage():
            host_cum = 0.0
            for blk in blocks:
                host_cum += blk.nbytes
                # A cached stage output lets the chain resume mid-way with
                # no upload at all: prefer the deepest one available.
                dev_buf, temp, resume = None, False, 0
                if region is not None:
                    for idx in range(len(stages) - 1, -1, -1):
                        st = stages[idx]
                        if not st.cache_output or st.cache_key is None:
                            continue
                        entry = region.lookup(
                            (st.cache_key, STAGE_OUT, blk.index))
                        if (entry is not None
                                and entry.buffer.data is not None):
                            dev_buf, resume = entry.buffer, idx + 1
                            break
                if dev_buf is None and primary_region is not None:
                    entry = primary_region.lookup(
                        (work.cache_key, PRIMARY, blk.index))
                    if entry is not None and entry.buffer.data is not None:
                        dev_buf = entry.buffer
                if region is not None or primary_region is not None:
                    outcome = ("stage-hit" if resume
                               else "primary-hit" if dev_buf is not None
                               else "miss")
                    tracer.instant("cache.probe", "gpu.cache", cache_track,
                                   block=blk.index, outcome=outcome)
                    reg.counter("gpu.cache.probe", device=device.name,
                                outcome=outcome).inc()
                if dev_buf is None:
                    if host_stream is not None:
                        evt = host_stream.when_fraction(host_cum / host_total)
                        if not evt.triggered:
                            # Starvation, not backpressure: the consumer is
                            # waiting on the producer, so only the
                            # starved_* stats count it.
                            host_stream.starved_count += 1
                            reg.counter("pipeline.h2d.starved",
                                        device=device.name).inc()
                            stall_start = self.env.now
                            yield evt
                            host_stream.starved_seconds += (
                                self.env.now - stall_start)
                            # The registry counter above is sampled into
                            # the store; just drive the window clock here.
                            monitor.tick()
                            tracer.complete(
                                "h2d.starved", "pipeline", pipeline_track,
                                start=stall_start, end=self.env.now,
                                block=blk.index)
                    entry = (primary_region.try_insert(
                                 (work.cache_key, PRIMARY, blk.index),
                                 blk.nbytes)
                             if primary_region is not None else None)
                    if entry is not None:
                        dev_buf = entry.buffer
                    else:
                        dev_buf = yield from wrapper.cuda_malloc(
                            device, blk.nbytes)
                        temp = True
                    window = yield from wrapper.transfer_h2d_inline(
                        device, dev_buf, blk, primary, work.comm_mode)
                    tracer.complete("h2d", "gpu.device", h2d_track,
                                    start=window[0], end=window[1],
                                    nbytes=blk.nbytes, block=blk.index)
                    h2d_bytes_ctr.inc(blk.nbytes)
                    monitor.count("gpu.pcie.bytes", blk.nbytes,
                                  device=device.name)
                if host_stream is not None:
                    host_stream.ack_nbytes(
                        work.host_stream_slot,
                        host_cum / host_total * host_stream.total_nbytes)
                yield to_kernel.put((blk, dev_buf, temp, resume))
            yield to_kernel.put(None)

        def kernel_stage():
            while True:
                item = yield to_kernel.get()
                if item is None:
                    yield to_d2h.put(None)
                    return
                blk, cur, cur_temp, resume = item
                cur_spill = None
                real = blk.real_count
                nominal = blk.nominal_count
                if resume:
                    # Resuming from a cached intermediate: counts reflect
                    # that stage's output, not the raw block.
                    real = _result_len(cur.data)
                    nominal = (blk.nominal_count * real / blk.real_count
                               if blk.real_count else float(real))
                d2h_nominal = nominal
                out_per_elem = self._out_nbytes_per_element(work, primary)
                for idx in range(resume, len(stages)):
                    st = stages[idx]
                    out_per_elem = (st.out_element_nbytes
                                    if st.out_element_nbytes is not None
                                    else self._out_nbytes_per_element(
                                        work, primary))
                    out_nbytes = int(max(nominal * out_per_elem, 8))
                    out_dev, out_temp, out_spill = (
                        yield from self._stage_out_buffer(
                            work, device, region, spill_region, st, blk,
                            idx, out_nbytes))
                    launch = LaunchConfig.for_elements(
                        max(nominal, 1), st.block_size)
                    stage_inputs = {PRIMARY: cur}
                    for arg, alias in st.extra.items():
                        stage_inputs[arg] = secondary[alias]
                    kernel_result = yield from wrapper.launch_kernel_inline(
                        device, st.execute_name, nominal, launch,
                        inputs=stage_inputs,
                        outputs={"out": out_dev}, params=st.params,
                        layout=primary.layout)
                    spec = wrapper.runtime.registry.get(st.execute_name)
                    ksec = spec.execution_seconds(nominal, launch,
                                                  device.spec,
                                                  layout=primary.layout)
                    work.stage_seconds[st.execute_name] = (
                        work.stage_seconds.get(st.execute_name, 0.0) + ksec)
                    # The launch returns at kernel end while holding the
                    # exclusive compute engine, so [now - ksec, now] is the
                    # engine's occupancy window — kernel spans never overlap.
                    tracer.complete(st.execute_name, "gpu.device",
                                    kernel_track, start=self.env.now - ksec,
                                    end=self.env.now, block=blk.index,
                                    stage=idx)
                    reg.counter("gpu.kernel.seconds", device=device.name,
                                kernel=st.execute_name).inc(ksec)
                    monitor.count("gstream.engine_busy_s", ksec,
                                  device=device.name)
                    # Retire this stage's input: spilled intermediates give
                    # their region room back, temporaries are freed, cached
                    # buffers stay resident.
                    if cur_spill is not None and spill_region is not None:
                        spill_region.remove(cur_spill)
                    elif cur_temp:
                        yield from wrapper.cuda_free(device, cur)
                    cur, cur_temp, cur_spill = out_dev, out_temp, out_spill
                    out_real = _result_len(kernel_result.get("out"))
                    if idx == len(stages) - 1:
                        if out_real == real:
                            d2h_nominal = nominal  # map-style kernel
                        else:
                            d2h_nominal = out_real  # reduce-style partials
                    elif out_real != real:
                        # Mid-chain fan-out/-in realized on the sample
                        # stands for the nominal one (flatmap semantics).
                        nominal = (nominal * out_real / real if real
                                   else float(out_real))
                    real = out_real
                yield to_d2h.put((blk, cur, cur_temp, cur_spill,
                                  d2h_nominal, out_per_elem))

        def d2h_stage():
            while True:
                item = yield to_d2h.get()
                if item is None:
                    return
                blk, out_dev, out_temp, out_spill, d2h_nominal, per_elem = item
                nbytes = int(max(d2h_nominal * per_elem, 1))
                data, window = yield from wrapper.transfer_d2h_inline(
                    device, work.out_buffer, out_dev, nbytes,
                    work.comm_mode)
                tracer.complete("d2h", "gpu.device", d2h_track,
                                start=window[0], end=window[1],
                                nbytes=nbytes, block=blk.index)
                d2h_bytes_ctr.inc(nbytes)
                monitor.count("gpu.pcie.bytes", nbytes, device=device.name)
                if out_spill is not None and spill_region is not None:
                    spill_region.remove(out_spill)
                elif out_temp:
                    yield from wrapper.cuda_free(device, out_dev)
                results[blk.index] = data

        def guarded(stage_fn):
            # A failing stage aborts the pipeline; its siblings are then
            # interrupted and must exit quietly (no further allocations).
            def runner():
                try:
                    yield from stage_fn()
                except InterruptError:
                    pass
            return runner

        procs = [self.env.process(guarded(h2d_stage)(), name="h2d-stage"),
                 self.env.process(guarded(kernel_stage)(),
                                  name="kernel-stage"),
                 self.env.process(guarded(d2h_stage)(), name="d2h-stage")]
        try:
            yield self.env.all_of(procs)
        except Exception:
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt("pipeline failed")
            raise

        for buf in self._temp_secondary:
            yield from wrapper.cuda_free(device, buf)
        self._temp_secondary = []
        return _assemble(results)

    def _stage_out_buffer(self, work: GWork, device: GPUDevice,
                          region: Optional[CacheRegion],
                          spill_region: Optional[CacheRegion],
                          stage: KernelStage, blk: Block, stage_index: int,
                          nbytes: int):
        """Device room for one stage's output block.

        Caching stages write straight into their cache-region entry (created
        on first use, reused across iterations).  Everything else is a
        ``cudaMalloc`` temporary — unless the device is out of memory, in
        which case the block borrows room in the cache region ("spill") and
        returns it as soon as the next stage has consumed the data.

        Returns ``(buffer, is_temp, spill_key)``.
        """
        if (stage.cache_output and region is not None
                and stage.cache_key is not None):
            key = (stage.cache_key, STAGE_OUT, blk.index)
            entry = region.entry(key)
            if entry is None:
                entry = region.try_insert(key, nbytes)
            if entry is not None:
                return entry.buffer, False, None
        if nbytes > device.memory.available and spill_region is not None:
            spill_key = ("spill", work.work_id, blk.index, stage_index)
            entry = spill_region.try_insert(spill_key, nbytes)
            if entry is not None:
                spill_region.spills += 1
                return entry.buffer, False, spill_key
        buf = yield from self.manager.wrapper.cuda_malloc(device, nbytes)
        return buf, True, None

    def _mapped_execute(self, work: GWork, device: GPUDevice,
                        secondary: Dict[str, DeviceBuffer]
                        ) -> Generator[Event, None, object]:
        """Zero-copy execution over device-mapped host memory (§4.1.2).

        The kernel's loads and stores traverse PCIe directly: no explicit
        copies, no copy-engine involvement — reads and writes overlap even
        on a one-engine GPU (that is the whole point of mapped memory).
        The cost is that every byte moves at PCIe speed *during* the kernel,
        so the per-block time is ``max(kernel, max(in, out) wire time)``.
        """
        wrapper = self.manager.wrapper
        primary = work.in_buffers[PRIMARY]
        if not primary.pinned:
            raise ConfigError(
                "device-mapped execution requires a pinned (page-locked) "
                "host buffer")
        results: Dict[int, object] = {}
        out_per_elem = self._out_nbytes_per_element(work, primary)
        obs = self.manager.obs
        tracer = obs.tracer
        kernel_track = tracer.track(device.name, "kernel")
        for blk in primary.split_blocks(self.manager.block_nbytes):
            host_view = DeviceBuffer(blk.nbytes, device.name)
            host_view.data = blk.elements
            out_view = DeviceBuffer(int(max(blk.nominal_count
                                            * out_per_elem, 8)), device.name)
            launch = LaunchConfig.for_elements(max(blk.nominal_count, 1),
                                               work.block_size)
            spec = wrapper.runtime.registry.get(work.execute_name)
            kernel_s = spec.execution_seconds(
                blk.nominal_count, launch, device.spec,
                layout=primary.layout)
            out_real_guess = blk.nominal_count  # map-style upper bound
            wire_in = blk.nbytes / device.spec.pcie_effective_bps
            wire_out = (out_real_guess * out_per_elem
                        / device.spec.pcie_effective_bps)
            # Kernel and both wire directions fully overlap.
            mapped_s = max(kernel_s, wire_in, wire_out)
            with device.compute.request() as grant:
                yield grant
                yield wrapper._jni()
                yield self.env.timeout(mapped_s)
                tracer.complete(work.execute_name, "gpu.device",
                                kernel_track, start=self.env.now - mapped_s,
                                end=self.env.now, block=blk.index,
                                mapped=True)
                obs.registry.counter(
                    "gpu.kernel.seconds", device=device.name,
                    kernel=work.execute_name).inc(kernel_s)
                obs.monitor.count("gstream.engine_busy_s", kernel_s,
                                  device=device.name)
                device.kernel_seconds += kernel_s
                device.kernels_launched += 1
                device.h2d_bytes += blk.nbytes
                in_arrays = {PRIMARY: host_view.data,
                             **{k: v.data for k, v in secondary.items()}}
                out = spec.fn(in_arrays, dict(work.params))
                if "out" not in out:
                    raise ConfigError(
                        f"kernel {work.execute_name!r} produced no 'out'")
                device.d2h_bytes += int(
                    _result_len(out["out"]) * primary.scale * out_per_elem)
                results[blk.index] = out["out"]
        for buf in self._temp_secondary:
            yield from wrapper.cuda_free(device, buf)
        self._temp_secondary = []
        return _assemble(results)

    @staticmethod
    def _out_nbytes_per_element(work: GWork, primary: HBuffer) -> float:
        if work.out_element_nbytes is not None:
            return work.out_element_nbytes
        if work.out_buffer.element_nbytes > 0:
            return work.out_buffer.element_nbytes
        return primary.element_nbytes


def _result_len(data: object) -> int:
    if data is None:
        return 0
    if isinstance(data, np.ndarray):
        return int(data.shape[0]) if data.ndim else 1
    try:
        return len(data)  # type: ignore[arg-type]
    except TypeError:
        return 1


def _assemble(results: Dict[int, object]) -> object:
    """Concatenate per-block outputs in block order."""
    ordered = [results[i] for i in sorted(results)]
    if not ordered:
        return []
    if all(isinstance(r, np.ndarray) for r in ordered):
        arrays = [r if r.ndim else r.reshape(1) for r in ordered]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    merged: List[object] = []
    for r in ordered:
        if isinstance(r, (list, tuple)):
            merged.extend(r)
        elif isinstance(r, np.ndarray):
            merged.extend(list(r))
        else:
            merged.append(r)
    return merged


class GStreamManager:
    """Per-worker GWork scheduler + stream pool + work pool (Fig. 4)."""

    def __init__(self, env: Environment, devices: List[GPUDevice],
                 wrapper: CUDAWrapper, gmm: GMemoryManager,
                 streams_per_gpu: int = 2,
                 block_nbytes: int = 8 * (1 << 20),
                 locality_aware: bool = True,
                 obs: Optional[Observability] = None):
        if streams_per_gpu < 1:
            raise ConfigError("streams_per_gpu must be >= 1")
        if block_nbytes <= 0:
            raise ConfigError("block_nbytes must be positive")
        self.env = env
        # A disabled stand-in keeps every call site unconditional (spans and
        # instants are no-ops; the private registry still counts).
        self.obs = obs if obs is not None else Observability(env)
        self.devices = list(devices)
        self.wrapper = wrapper
        self.gmm = gmm
        self.block_nbytes = block_nbytes
        # Ablation switch: with locality off, Algorithm 5.1's GID step is
        # skipped and work balances blindly across bulks.
        self.locality_aware = locality_aware
        self.queues: List[Deque[GWork]] = [deque() for _ in devices]
        # Fault-domain controller (the owning GPUManager); None when the
        # manager is constructed standalone (unit tests) — no fault
        # machinery runs then.
        self.faults = None
        self.blacklisted_devices: set = set()
        self.bulks: List[List[GStream]] = []
        self.idle: List[List[GStream]] = []
        for gid in range(len(devices)):
            bulk = [GStream(env, self, gid, s) for s in range(streams_per_gpu)]
            self.bulks.append(bulk)
            self.idle.append(list(bulk))
        self.works_submitted = 0
        self.works_completed = 0

    # -- producer side ------------------------------------------------------------
    def submit(self, work: GWork) -> Event:
        """Submit a GWork; returns its completion event (Algorithm 5.1)."""
        work.completion = self.env.event()
        self.works_submitted += 1
        keys = self._locality_keys(work) if self.locality_aware else []
        bl = self.blacklisted_devices
        # Blacklisted bulks present no idle streams to Algorithm 5.1, so
        # work can only land on in-service devices (unless none remain).
        idle_view = ([[] if g in bl else self.idle[g]
                      for g in range(len(self.devices))]
                     if bl and len(bl) < len(self.devices) else self.idle)
        decision = schedule_work(work, self.gmm, keys,
                                 idle_view, self.queues)
        if decision.stream is not None:
            stream = decision.stream
            self.idle[stream.device_index].remove(stream)
            stream.mailbox.put(work)
            target, dispatch = stream.device_index, "stream"
        else:
            queue_index = decision.queue_index
            if queue_index in bl and len(bl) < len(self.devices):
                healthy = [g for g in range(len(self.queues))
                           if g not in bl]
                queue_index = min(healthy,
                                  key=lambda g: (len(self.queues[g]), g))
            target, dispatch = queue_index, "queued"
            self.queues[queue_index].append(work)
        device_name = self.devices[target].name
        tracer = self.obs.tracer
        tracer.instant("gwork.submit", "gpu.schedule",
                       tracer.track(device_name, "sched"),
                       kernel=work.execute_name, work=work.work_id,
                       dispatch=dispatch)
        self.obs.registry.counter("gwork.submitted",
                                  device=device_name).inc()
        return work.completion

    def _locality_keys(self, work: GWork) -> List[Hashable]:
        return locality_keys(work, self.block_nbytes)

    # -- consumer side --------------------------------------------------------------
    def mark_idle(self, stream: GStream) -> None:
        """A stream found no work to steal and parks itself."""
        if stream not in self.idle[stream.device_index]:
            self.idle[stream.device_index].append(stream)

    # -- failure domains ------------------------------------------------------------
    def is_blacklisted(self, device_index: int) -> bool:
        return device_index in self.blacklisted_devices

    def mark_blacklisted(self, device_index: int) -> None:
        """Take a device out of service: re-route its queued work.

        Its streams stop stealing after their current work; GWorks parked in
        its pool queue migrate to the shortest surviving queue (or stay put
        when no device survives — the producer's retry will fail over to
        the CPU path instead).
        """
        if device_index in self.blacklisted_devices:
            return
        self.blacklisted_devices.add(device_index)
        healthy = [g for g in range(len(self.queues))
                   if g not in self.blacklisted_devices]
        if not healthy:
            return
        stranded = self.queues[device_index]
        while stranded:
            work = stranded.popleft()
            target = min(healthy, key=lambda g: (len(self.queues[g]), g))
            # An idle healthy stream picks it up immediately when possible.
            if self.idle[target]:
                stream = self.idle[target].pop(0)
                stream.mailbox.put(work)
            else:
                self.queues[target].append(work)

    # -- observability -------------------------------------------------------------
    @property
    def pending(self) -> int:
        """GWorks waiting in the pool."""
        return sum(len(q) for q in self.queues)

    def idle_stream_count(self) -> int:
        return sum(len(b) for b in self.idle)
