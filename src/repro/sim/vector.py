"""Lockstep multi-replication DES: many seeds advanced as NumPy arrays.

:class:`VectorSnoopingBusSimulator` runs ``reps`` independent
replications of the Figure 2.1 snooping-bus system *in lockstep*: event
times, processor/cache/bus/memory occupancy and the Welford/batch-means
accumulators are ``(reps,)`` (or ``(reps, N)``) arrays, and every "tick"
advances each still-active replication by exactly its own next event --
the minimum of its bus-completion time and its per-processor timers,
with the bus winning ties exactly like the scalar engine's priority
classes.  One tick therefore costs a fixed number of small vectorized
NumPy operations regardless of how many replications ride along, which
is where the >=10x throughput over running
:class:`~repro.sim.system.SnoopingBusSimulator` once per seed comes
from (see ``benchmarks/bench_sim.py``).

The scalar simulator stays the semantic reference.  The vector engine
reproduces its *timing semantics* -- the same broadcast / remote-read
service decompositions, snoop-holder sampling, cache busy-until polling
with poll-retry, warm-up reset and batch-means bookkeeping -- but it
does **not** replay the scalar engine's random streams bit-for-bit
(the scalar draws via ziggurat exponentials, rejection-sampled
``choice`` and per-processor spawned generators; the vector engine
draws fixed-width uniforms from one buffered stream per replication),
and it applies each request's completion bookkeeping in the tick where
the completion time becomes causally determined, which can run a few
events ahead of interleaved bus traffic near the warm-up and stop
boundaries.  The promise is therefore *statistical* equivalence,
enforced by the scalar-vs-vector section of ``repro verify`` (see
docs/validation.md for the tolerance table).

One launch can carry several *cells* (different protocols, sharing
levels and system sizes) side by side: the lane axis runs over
(cell, replication), every per-configuration constant -- the derived
routing thresholds, ``tau``, the bus timings, N -- is a per-lane value,
and processor state is padded to the launch's largest N (padded
processors never fire and never enter a reduction).
:func:`plan_launches` packs cells that share the architecture,
warm-up, measured-request and batch settings into launches of at most
:data:`MAX_LAUNCH_LANES` lanes, :func:`simulate_cells` runs them and
splits each result back per cell, and :func:`simulate_many` is the
one-cell case of the same engine.

What *is* bit-promised: a replication's trajectory depends only on its
own seed and its own cell, never on the other lanes of its launch.
Permuting ``seeds`` permutes the result rows and nothing else, and a
cell's per-replication arrays from a merged launch are bit-identical to
a solo :func:`simulate_many` of that cell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.protocols.modifications import Modification
from repro.sim.config import SimulationConfig
from repro.sim.stats import t_quantile
from repro.sim.system import SNOOP_ACTION_CYCLES, SimulationResult
from repro.workload.derived import DerivedInputs, derive_inputs
from repro.workload.streams import RequestKind

#: Processor phases in the lockstep state machine (int8 codes).
_EXEC, _POLL, _BUSY, _DONE = 0, 1, 2, 3

#: Request-kind codes; index into :data:`_KINDS`.
_KINDS = (RequestKind.LOCAL, RequestKind.BROADCAST, RequestKind.REMOTE_READ)

#: The scalar cache controller's "already free" slack (cache.py).
_EPS = 1e-12

#: Most lanes :func:`plan_launches` packs into one launch.  A lane
#: costs about 34 KiB (its uniform buffer plus its state rows), so the
#: cap bounds a merged launch's memory whatever the sweep size.  512 is
#: the knee of the width curve: up to it a launch's wall time stays
#: flat (per-tick interpreter overhead), past it the time grows with
#: the width, and going to 4096 lanes buys under 2x per replication
#: for 8x the memory (docs/performance.md).
MAX_LAUNCH_LANES = 512


class _UniformLanes:
    """One buffered uniform stream per replication.

    Each replication owns an independent ``np.random.Generator`` seeded
    from its own entry in ``seeds``; draws are served from a per-lane
    buffer refilled in amortized chunks.  Because a lane only ever
    consumes from its own generator, a replication's entire trajectory
    is a pure function of its seed -- the property the seed-permutation
    test pins down.
    """

    def __init__(self, seeds: Sequence[int], widths: Sequence[int]):
        # A lane's refill chunk is a function of its own widest draw
        # only, so its refill boundaries (and hence its draws) do not
        # depend on which other lanes share the launch.
        chunks = [max(4096, 8 * w) for w in widths]
        self._gens = [np.random.default_rng(s) for s in seeds]
        self._chunks = chunks
        self._stride = max(chunks)
        self._chunk = np.asarray(chunks)
        n = len(self._gens)
        self._buf = np.empty((n, self._stride), dtype=np.float64)
        for lane, gen in enumerate(self._gens):
            self._buf[lane, :chunks[lane]] = gen.random(chunks[lane])
        self._flat = self._buf.ravel()
        self._pos = np.zeros(n, dtype=np.int64)
        self._aranges: dict[int, np.ndarray] = {}

    def _offsets(self, width: int) -> np.ndarray:
        offs = self._aranges.get(width)
        if offs is None:
            offs = self._aranges[width] = np.arange(width)
        return offs

    def _advance(self, rows: np.ndarray,
                 width: int | np.ndarray) -> np.ndarray:
        """Reserve ``width`` draws per lane (refilling lanes whose
        buffer cannot hold them); returns their flat start offsets."""
        pos = self._pos
        p = pos[rows]
        over = p + width > self._chunk[rows]
        if over.any():
            for lane in rows[over]:
                chunk = self._chunks[lane]
                self._buf[lane, :chunk] = self._gens[lane].random(chunk)
                pos[lane] = 0
            p = pos[rows]
        pos[rows] = p + width
        return rows * self._stride + p

    def take(self, rows: np.ndarray, width: int) -> np.ndarray:
        """Draw ``width`` uniforms from each lane in ``rows``.

        Returns shape ``(len(rows),)`` when ``width == 1`` else
        ``(len(rows), width)``.
        """
        base = self._advance(rows, width)
        if width == 1:
            return self._flat[base]
        return self._flat[base[:, None] + self._offsets(width)]

    def take_padded(self, rows: np.ndarray, widths: np.ndarray,
                    out_width: int) -> np.ndarray:
        """Draw ``widths[i]`` uniforms from lane ``rows[i]``.

        Returns shape ``(len(rows), out_width)``; the columns past a
        lane's own width hold 1.0, which no probability threshold in
        [0, 1] accepts (``u < p`` is False), so padding never samples.
        """
        base = self._advance(rows, widths)
        offs = self._offsets(out_width)
        index = np.minimum(base[:, None] + offs, self._flat.size - 1)
        return np.where(offs < widths[:, None], self._flat[index], 1.0)


def _wadd(count: np.ndarray, mean: np.ndarray, m2: np.ndarray,
          rows: np.ndarray, values: np.ndarray | float) -> None:
    """Vectorized Welford update; each row receives one sample."""
    if rows.size == 0:
        return
    count[rows] += 1
    delta = values - mean[rows]
    mean[rows] += delta / count[rows]
    m2[rows] += delta * (values - mean[rows])


def _wmean(count: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Welford mean with the scalar accumulator's empty -> 0 rule."""
    return np.where(count > 0, mean, 0.0)


def _wstd(count: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Welford sample standard deviation (0 below two samples)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(count > 1, m2 / np.maximum(count - 1, 1), 0.0)
    return np.sqrt(np.maximum(var, 0.0))


@dataclass(frozen=True)
class VectorSimulationResult:
    """Per-replication estimates from one lockstep run.

    Every statistical field is a ``(reps,)`` NumPy array aligned with
    ``seeds``; :meth:`replication` materializes one row as the scalar
    engine's :class:`~repro.sim.system.SimulationResult`, and
    :meth:`aggregate` folds the rows into a single MVA-comparable
    result whose confidence interval comes from the across-replication
    spread (the "multi-seed band").
    """

    n_processors: int
    protocol_label: str
    sharing_label: str
    seeds: tuple[int, ...]
    requests_measured: np.ndarray
    elapsed_cycles: np.ndarray
    mean_cycle_time: np.ndarray
    speedup: np.ndarray
    speedup_ci_halfwidth: np.ndarray
    processing_power: np.ndarray
    u_bus: np.ndarray
    u_mem: np.ndarray
    w_bus: np.ndarray
    w_bus_stddev: np.ndarray
    q_bus_seen: np.ndarray
    mean_interference_wait: np.ndarray
    bus_transactions: np.ndarray
    #: Per-kind response means / sample counts, shape ``(3, reps)`` in
    #: :data:`_KINDS` order (LOCAL, BROADCAST, REMOTE_READ).
    response_means: np.ndarray
    response_counts: np.ndarray

    @property
    def n_replications(self) -> int:
        """Number of lockstep replications in this result."""
        return len(self.seeds)

    def _response_dict(self, rep: int) -> dict[str, float]:
        return {k.value: float(self.response_means[j, rep])
                for j, k in enumerate(_KINDS)
                if self.response_counts[j, rep] > 0}

    def replication(self, rep: int) -> SimulationResult:
        """One replication's estimates as a scalar-engine result."""
        return SimulationResult(
            n_processors=self.n_processors,
            protocol_label=self.protocol_label,
            sharing_label=self.sharing_label,
            requests_measured=int(self.requests_measured[rep]),
            elapsed_cycles=float(self.elapsed_cycles[rep]),
            mean_cycle_time=float(self.mean_cycle_time[rep]),
            speedup=float(self.speedup[rep]),
            speedup_ci_halfwidth=float(self.speedup_ci_halfwidth[rep]),
            processing_power=float(self.processing_power[rep]),
            u_bus=float(self.u_bus[rep]),
            u_mem=float(self.u_mem[rep]),
            w_bus=float(self.w_bus[rep]),
            w_bus_stddev=float(self.w_bus_stddev[rep]),
            q_bus_seen=float(self.q_bus_seen[rep]),
            mean_interference_wait=float(self.mean_interference_wait[rep]),
            bus_transactions=int(self.bus_transactions[rep]),
            response_by_kind=self._response_dict(rep),
        )

    @property
    def speedup_band_halfwidth(self) -> float:
        """95% t-CI half-width of the mean speedup across replications.

        This is the multi-seed band the MVA-vs-DES oracle checks
        against; it needs at least two replications (0.0 otherwise).
        """
        reps = self.n_replications
        if reps < 2:
            return 0.0
        t_crit = t_quantile(0.975, reps - 1)
        return t_crit * float(np.std(self.speedup, ddof=1)) / math.sqrt(reps)

    def aggregate(self) -> SimulationResult:
        """Fold all replications into one MVA-comparable result.

        Point estimates are unweighted means across replications (each
        replication measured the same number of requests), the CI
        half-width is the across-replication band, and
        ``requests_measured`` / ``bus_transactions`` are totals.
        """
        reps = self.n_replications
        if reps == 1:
            return self.replication(0)
        responses: dict[str, float] = {}
        for j, k in enumerate(_KINDS):
            weight = int(self.response_counts[j].sum())
            if weight > 0:
                responses[k.value] = float(
                    (self.response_means[j] * self.response_counts[j]).sum()
                    / weight)
        # The aggregate speedup is re-derived from the aggregated cycle
        # time so the speedup identity (speedup == N (tau + T_supply) / R,
        # a verified sim-stats law) holds for the folded result too --
        # the mean of per-replication speedups would not satisfy it.
        mean_cycle = float(self.mean_cycle_time.mean())
        ideal = float((self.speedup * self.mean_cycle_time).mean()
                      / self.n_processors)
        speedup = (self.n_processors * ideal / mean_cycle
                   if mean_cycle > 0.0 else 0.0)
        return SimulationResult(
            n_processors=self.n_processors,
            protocol_label=self.protocol_label,
            sharing_label=self.sharing_label,
            requests_measured=int(self.requests_measured.sum()),
            elapsed_cycles=float(self.elapsed_cycles.mean()),
            mean_cycle_time=mean_cycle,
            speedup=speedup,
            speedup_ci_halfwidth=self.speedup_band_halfwidth,
            processing_power=float(self.processing_power.mean()),
            u_bus=float(self.u_bus.mean()),
            u_mem=float(self.u_mem.mean()),
            w_bus=float(self.w_bus.mean()),
            w_bus_stddev=float(self.w_bus_stddev.mean()),
            q_bus_seen=float(self.q_bus_seen.mean()),
            mean_interference_wait=float(
                self.mean_interference_wait.mean()),
            bus_transactions=int(self.bus_transactions.sum()),
            response_by_kind=responses,
        )

    def summary(self) -> str:
        """One-line digest of the aggregate estimates."""
        agg = self.aggregate()
        return (f"{agg.protocol_label} N={agg.n_processors} "
                f"({agg.sharing_label} sharing, "
                f"{self.n_replications} reps): "
                f"speedup={agg.speedup:.3f}"
                f"±{agg.speedup_ci_halfwidth:.3f} "
                f"U_bus={agg.u_bus:.3f} w_bus={agg.w_bus:.3f} "
                f"[{agg.requests_measured} requests]")


def launch_key(config: SimulationConfig) -> tuple:
    """The settings cells must share to ride in one launch.

    The lockstep loop treats these as launch-wide constants: the bus,
    memory and cache timings of the architecture, the warm-up and stop
    counts, the batch-means layout and the read-path contention switch.
    Everything else (protocol, workload, N, holder probability) is
    per-lane.
    """
    return (config.arch, config.warmup_requests, config.measured_requests,
            config.n_batches, config.model_read_memory_contention)


@dataclass(frozen=True)
class _Cell:
    """One configuration of a launch, its seeds and its model inputs."""

    config: SimulationConfig
    seeds: tuple[int, ...]
    inputs: DerivedInputs


def _make_cell(config: SimulationConfig, reps: int,
               seeds: Sequence[int] | None) -> _Cell:
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps!r}")
    if config.bus_discipline.value != "fcfs":
        raise ValueError(
            "the vector engine models FCFS bus service only; use the "
            "scalar engine for random-order runs")
    if seeds is None:
        seeds = tuple(int(config.seed) + r for r in range(reps))
    else:
        seeds = tuple(int(s) for s in seeds)
        if len(seeds) != reps:
            raise ValueError(
                f"need exactly {reps} seeds, got {len(seeds)}")
    inputs = derive_inputs(
        config.effective_workload, config.arch,
        config.protocol.mod_numbers,
        holder_probability=(config.holder_probability
                            if config.holder_probability is not None
                            else 0.5))
    return _Cell(config, seeds, inputs)


def _constants(inputs: DerivedInputs) -> dict[str, float | bool]:
    """One cell's tick-loop constants (the ReferenceStream thresholds)."""
    workload = inputs.workload
    if inputs.p_rr > 0.0:
        sr_frac, sw_frac = inputs.sr_miss_frac, inputs.sw_miss_frac
    else:
        sr_frac = sw_frac = 0.0
    sw_bc = inputs.mix.sw_broadcast(inputs.mods)
    return {
        "p_local": inputs.p_local,
        "p_loc_bc": inputs.p_local + inputs.p_bc,
        "sr_frac": sr_frac,
        "srw_frac": sr_frac + sw_frac,
        "bc_shared_frac": (sw_bc / inputs.p_bc
                           if inputs.p_bc > 0.0 else 0.0),
        "csupply_sro": workload.csupply_sro,
        "csupply_sw": workload.csupply_sw,
        "wb_csupply": workload.wb_csupply,
        "p_reqwb_rr": inputs.p_reqwb_rr,
        "hp": inputs.holder_probability,
        "tau": workload.tau,
        "t_bc": float(inputs.t_bc),
        "bc_mem": bool(inputs.bc_updates_memory),
        "c2c": Modification.CACHE_TO_CACHE_SUPPLY.value in inputs.mods,
    }


class VectorSnoopingBusSimulator:
    """Discrete-event model advancing many replications in lockstep.

    Mirrors :class:`~repro.sim.system.SnoopingBusSimulator` event for
    event within each replication -- FCFS bus, dual-directory cache
    busy-until horizons with poll-retry, interleaved memory modules,
    warm-up reset and batch-means CI -- while storing every piece of
    state as a NumPy array indexed by lane.

    ``VectorSnoopingBusSimulator(config, reps, seeds)`` is a one-cell
    launch; :meth:`from_cells` builds a launch carrying several cells.
    Either way ``reps`` is the launch's lane count, ``seeds`` its lane
    seeds in order and ``config`` (the first cell's) carries the
    launch-wide warm-up and measured-request counts.
    """

    def __init__(self, config: SimulationConfig, reps: int,
                 seeds: Sequence[int] | None = None):
        self._bind([_make_cell(config, reps, seeds)])

    @classmethod
    def from_cells(
            cls, cells: Sequence[tuple[SimulationConfig, Sequence[int]]],
    ) -> VectorSnoopingBusSimulator:
        """One launch over ``(config, seeds)`` cells sharing
        :func:`launch_key`; :meth:`run` returns their results in this
        order."""
        launch = cls.__new__(cls)
        launch._bind([_make_cell(config, len(seeds), seeds)
                      for config, seeds in cells])
        return launch

    def _bind(self, cells: list[_Cell]) -> None:
        if not cells:
            raise ValueError("a launch needs at least one cell")
        key = launch_key(cells[0].config)
        if any(launch_key(cell.config) != key for cell in cells[1:]):
            raise ValueError(
                "cells of one launch must share the architecture, "
                "warm-up, measured requests, batch count and read "
                "contention setting")
        self._cells = tuple(cells)
        self.config = cells[0].config
        self.reps = sum(len(cell.seeds) for cell in cells)
        self.seeds = tuple(s for cell in cells for s in cell.seeds)

    # -- the lockstep event loop ---------------------------------------

    def run(self) -> list[VectorSimulationResult]:
        """Run warm-up plus measurement in every lane; returns one
        result per cell, in launch order."""
        cfg = self.config
        arch = cfg.arch
        reps = self.reps
        counts = [len(cell.seeds) for cell in self._cells]
        sizes = [cell.config.n_processors for cell in self._cells]
        per_cell = [_constants(cell.inputs) for cell in self._cells]
        # Per-lane constants: each cell's value repeated over its lanes.
        const = {name: np.repeat([c[name] for c in per_cell], counts)
                 for name in per_cell[0]}
        p_local, p_loc_bc = const["p_local"], const["p_loc_bc"]
        sr_frac, srw_frac = const["sr_frac"], const["srw_frac"]
        bc_shared_frac = const["bc_shared_frac"]
        csupply_sro, csupply_sw = const["csupply_sro"], const["csupply_sw"]
        wb_csupply, p_reqwb_rr = const["wb_csupply"], const["p_reqwb_rr"]
        hp, tau = const["hp"], const["tau"]
        t_bc, bc_mem, c2c = const["t_bc"], const["bc_mem"], const["c2c"]
        n = np.repeat(sizes, counts)
        # Only lanes with another cache to snoop sample holders.
        multi = n > 1
        # Launch-wide constants.
        t_supply = arch.t_supply
        t_block = arch.block_transfer_cycles
        base_read = arch.base_read_cycles
        cache_supply = arch.cache_supply_cycles
        model_contention = cfg.model_read_memory_contention
        n_modules, mem_latency = arch.memory_modules, arch.memory_latency
        warmup, target = cfg.warmup_requests, cfg.measured_requests
        n_batches = cfg.n_batches
        batch_size = target // n_batches
        batch_take = batch_size * n_batches

        # ``stride`` is the padded processor axis: lane r's processor q
        # lives at flat index r * stride + q.
        stride = max(sizes)
        lanes = _UniformLanes(self.seeds, np.maximum(n, 5).tolist())
        inf = np.inf

        # Per-(lane, proc) state.  The ``*_f`` aliases are flat views:
        # indexing one ``(lane, proc)`` pair costs a single fancy index
        # on ``lane * stride + proc`` instead of a 2-D advanced index.
        proc_state = np.full((reps, stride), _EXEC, dtype=np.int8)
        proc_time = np.zeros((reps, stride), dtype=np.float64)
        cycle_start = np.zeros((reps, stride), dtype=np.float64)
        fire_time = np.zeros((reps, stride), dtype=np.float64)
        kind = np.zeros((reps, stride), dtype=np.int8)
        f_shared = np.zeros((reps, stride), dtype=bool)
        f_csup = np.zeros((reps, stride), dtype=bool)
        f_supwb = np.zeros((reps, stride), dtype=bool)
        f_reqwb = np.zeros((reps, stride), dtype=bool)
        cache_until = np.zeros((reps, stride), dtype=np.float64)
        state_f = proc_state.ravel()
        ptime_f = proc_time.ravel()
        cstart_f = cycle_start.ravel()
        fire_f = fire_time.ravel()
        kind_f = kind.ravel()
        cache_f = cache_until.ravel()
        shared_f = f_shared.ravel()
        csup_f = f_csup.ravel()
        supwb_f = f_supwb.ravel()
        reqwb_f = f_reqwb.ravel()
        # Padded processors never fire: their timers stay infinite.
        proc_time[np.arange(stride) >= n[:, None]] = inf

        # Per-lane bus: one in-service slot plus an FCFS ring of size N.
        bus_current = np.full(reps, -1, dtype=np.int32)
        bus_until = np.full(reps, inf, dtype=np.float64)
        bus_start = np.zeros(reps, dtype=np.float64)
        queue_buf = np.zeros((reps, stride), dtype=np.int32)
        q_head = np.zeros(reps, dtype=np.int32)
        q_len = np.zeros(reps, dtype=np.int32)

        mem_until = np.zeros((reps, n_modules), dtype=np.float64)

        # Per-lane measurement machinery.
        measuring = np.full(reps, warmup == 0, dtype=bool)
        measure_start = np.zeros(reps, dtype=np.float64)
        completed = np.zeros(reps, dtype=np.int64)
        measured = np.zeros(reps, dtype=np.int64)
        end_time = np.zeros(reps, dtype=np.float64)
        done = np.zeros(reps, dtype=bool)

        cw_count = np.zeros(reps, dtype=np.int64)
        cw_mean = np.zeros(reps, dtype=np.float64)
        cw_m2 = np.zeros(reps, dtype=np.float64)
        batch_sums = np.zeros((reps, n_batches), dtype=np.float64)
        wb_count = np.zeros(reps, dtype=np.int64)
        wb_mean = np.zeros(reps, dtype=np.float64)
        wb_m2 = np.zeros(reps, dtype=np.float64)
        sq_count = np.zeros(reps, dtype=np.int64)
        sq_mean = np.zeros(reps, dtype=np.float64)
        sq_m2 = np.zeros(reps, dtype=np.float64)
        if_count = np.zeros(reps, dtype=np.int64)
        if_mean = np.zeros(reps, dtype=np.float64)
        if_m2 = np.zeros(reps, dtype=np.float64)
        resp_count = np.zeros((3, reps), dtype=np.int64)
        resp_mean = np.zeros((3, reps), dtype=np.float64)
        bus_busy = np.zeros(reps, dtype=np.float64)
        bus_tx = np.zeros(reps, dtype=np.int64)
        mem_busy = np.zeros(reps, dtype=np.float64)
        busy_cycles = np.zeros(reps, dtype=np.float64)

        resp_count_f = resp_count.ravel()
        resp_mean_f = resp_mean.ravel()

        def draw_bursts(rows: np.ndarray) -> np.ndarray:
            """Exponential execution bursts, one per listed lane."""
            tr = tau[rows]
            live = tr > 0.0
            if live.all():
                return -tr * np.log1p(-lanes.take(rows, 1))
            out = np.zeros(rows.size, dtype=np.float64)
            out[live] = -tr[live] * np.log1p(-lanes.take(rows[live], 1))
            return out

        def draw_holders(rows: np.ndarray) -> np.ndarray:
            """Snoop-holder sample over each lane's own N processors,
            padded with False to ``stride`` columns."""
            u = lanes.take_padded(rows, n[rows], stride)
            return u < hp[rows][:, None]

        def memory_write(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
            """Occupy one random module per row; returns the bus wait."""
            mods_pick = (lanes.take(rows, 1) * n_modules).astype(np.int64)
            start = np.maximum(at, mem_until[rows, mods_pick])
            mem_until[rows, mods_pick] = start + mem_latency
            mem_busy[rows[measuring[rows]]] += mem_latency
            return start - at

        # Initial execution bursts (one per processor per lane), drawn
        # and summed over each lane's own N so no padding is involved.
        for size in sorted(set(sizes)):
            rows = np.flatnonzero((n == size) & (tau > 0.0))
            if rows.size:
                bursts0 = -tau[rows][:, None] * np.log1p(
                    -lanes.take(rows, size).reshape(rows.size, size))
                proc_time[rows, :size] = bursts0
                busy_cycles[rows] = np.where(measuring[rows],
                                             bursts0.sum(axis=1), 0.0)

        # A tick advances each active lane by one event, so the tick
        # count is bounded by the busiest lane's event count; the
        # generous cap below only trips on a genuine bug (lost event /
        # non-advancing clock), never on a slow run.
        tick_limit = 400 * (warmup + target + 16 * stride + 64)
        tick = 0
        active = reps
        rbase = np.arange(reps) * stride

        while active > 0:
            tick += 1
            if tick > tick_limit:
                raise RuntimeError(
                    f"vector DES exceeded {tick_limit} ticks with "
                    f"{active} replications still live; event state is "
                    "corrupt (overflow guard)")

            pi = np.argmin(proc_time, axis=1)
            pt = ptime_f[rbase + pi]
            ebus = bus_until <= pt
            now_all = np.where(ebus, bus_until, pt)
            act = np.isfinite(now_all)
            if not act.any():
                raise RuntimeError(
                    "vector DES deadlock: live replications but no "
                    "finite pending event")

            grant_r: list[np.ndarray] = []
            grant_q: list[np.ndarray] = []
            grant_t: list[np.ndarray] = []
            # Requests whose completion time became determined this
            # tick: (lane, flat lane*stride+proc index, completion time).
            comp_r: list[np.ndarray] = []
            comp_f: list[np.ndarray] = []
            comp_t: list[np.ndarray] = []

            # -- bus completions (priority over processor events) ------
            rb = np.flatnonzero(ebus & act)
            if rb.size:
                tb = bus_until[rb]
                qb = bus_current[rb]
                meas_b = measuring[rb]
                rbm = rb[meas_b]
                bus_busy[rbm] += (tb[meas_b]
                                  - np.maximum(bus_start[rbm],
                                               measure_start[rbm]))
                bus_tx[rbm] += 1
                # The cache answers the processor one supply cycle
                # later; that completion has no further interactions,
                # so it is folded into this tick's completion batch.
                comp_r.append(rb)
                comp_f.append(rb * stride + qb)
                comp_t.append(tb + t_supply)
                has_next = q_len[rb] > 0
                rn = rb[has_next]
                if rn.size:
                    nq = queue_buf[rn, q_head[rn]]
                    q_head[rn] = (q_head[rn] + 1) % n[rn]
                    q_len[rn] -= 1
                    grant_r.append(rn)
                    grant_q.append(nq)
                    grant_t.append(tb[has_next])
                ridle = rb[~has_next]
                bus_current[ridle] = -1
                bus_until[ridle] = inf

            # -- processor events --------------------------------------
            rp = np.flatnonzero(act & ~ebus)
            if rp.size:
                ip = pi[rp]
                tp = pt[rp]
                fp = rp * stride + ip
                st = state_f[fp]

                # fire: sample the outcome and route the request
                fire = st == _EXEC
                rf = rp[fire]
                if rf.size:
                    ff = fp[fire]
                    tf = tp[fire]
                    u = lanes.take(rf, 5)
                    u0, u1 = u[:, 0], u[:, 1]
                    kf = np.where(u0 < p_local[rf], 0,
                                  np.where(u0 < p_loc_bc[rf], 1, 2)
                                  ).astype(np.int8)
                    kind_f[ff] = kf
                    fire_f[ff] = tf

                    islocal = kf == 0
                    rl = rf[islocal]
                    if rl.size:
                        fl = ff[islocal]
                        tl = tf[islocal]
                        cu = cache_f[fl]
                        free = tl + _EPS >= cu
                        rs = rl[free]
                        if rs.size:
                            fsv = fl[free]
                            _wadd(if_count, if_mean, if_m2,
                                  rs[measuring[rs]], 0.0)
                            start = np.maximum(tl[free], cu[free])
                            cache_f[fsv] = start + t_supply
                            comp_r.append(rs)
                            comp_f.append(fsv)
                            comp_t.append(start + t_supply)
                        rw = rl[~free]
                        if rw.size:
                            fw = fl[~free]
                            state_f[fw] = _POLL
                            ptime_f[fw] = cu[~free]

                    tobus = ~islocal
                    rq = rf[tobus]
                    if rq.size:
                        fq = ff[tobus]
                        tq = tf[tobus]
                        # Resolve the sharing flags only for the bus
                        # subset; local requests never read them.
                        kq = kf[tobus]
                        u1q = u1[tobus]
                        isbc = kq == 1
                        shared = np.where(
                            isbc, u1q < bc_shared_frac[rq], False)
                        sr = ~isbc & (u1q < sr_frac[rq])
                        sw = ~isbc & ~sr & (u1q < srw_frac[rq])
                        shared |= sr | sw
                        csp = np.where(sr, csupply_sro[rq],
                                       np.where(sw, csupply_sw[rq],
                                                0.0))
                        csupf = shared & ~isbc & (u[tobus, 2] < csp)
                        supwbf = csupf & (u[tobus, 3] < wb_csupply[rq])
                        reqwbf = ~isbc & (u[tobus, 4] < p_reqwb_rr[rq])
                        # The snoop flag is only ever read to sample
                        # holders, which a one-processor lane has none of.
                        shared &= multi[rq]
                        shared_f[fq] = shared
                        csup_f[fq] = csupf
                        supwb_f[fq] = supwbf
                        reqwb_f[fq] = reqwbf
                        seen = (q_len[rq]
                                + (bus_current[rq] >= 0)).astype(np.float64)
                        mq = measuring[rq]
                        _wadd(sq_count, sq_mean, sq_m2, rq[mq], seen[mq])
                        state_f[fq] = _BUSY
                        ptime_f[fq] = inf
                        idle = bus_current[rq] < 0
                        if idle.any():
                            grant_r.append(rq[idle])
                            grant_q.append(
                                (fq[idle] % stride).astype(np.int32))
                            grant_t.append(tq[idle])
                        rpush = rq[~idle]
                        if rpush.size:
                            slot = ((q_head[rpush] + q_len[rpush])
                                    % n[rpush])
                            queue_buf[rpush, slot] = fq[~idle] % stride
                            q_len[rpush] += 1

                # poll: retry a local request against the snoop horizon
                poll = st == _POLL
                rv = rp[poll]
                if rv.size:
                    fv = fp[poll]
                    tv = tp[poll]
                    cu = cache_f[fv]
                    again = tv + _EPS < cu
                    fa = fv[again]
                    if fa.size:
                        ptime_f[fa] = cu[again]
                    rs = rv[~again]
                    if rs.size:
                        fsv = fv[~again]
                        ts = tv[~again]
                        waits = ts - fire_f[fsv]
                        mv = measuring[rs]
                        _wadd(if_count, if_mean, if_m2, rs[mv], waits[mv])
                        start = np.maximum(ts, cache_f[fsv])
                        cache_f[fsv] = start + t_supply
                        comp_r.append(rs)
                        comp_f.append(fsv)
                        comp_t.append(start + t_supply)

            # -- bus grants: compute service, occupy memory, snoop -----
            # Grants run before the completion batch, mirroring the
            # scalar bus (Bus.complete starts the next transaction
            # before the finished request's callback runs); a lane
            # stopped by a completion below then freezes over any bus
            # service granted this tick.
            if grant_r:
                r_g = (grant_r[0] if len(grant_r) == 1
                       else np.concatenate(grant_r))
                q_g = (grant_q[0] if len(grant_q) == 1
                       else np.concatenate(grant_q))
                t_g = (grant_t[0] if len(grant_t) == 1
                       else np.concatenate(grant_t))
                g_f = r_g * stride + q_g
                mg = measuring[r_g]
                _wadd(wb_count, wb_mean, wb_m2, r_g[mg],
                      (t_g - fire_f[g_f])[mg])
                dur = np.empty(r_g.size, dtype=np.float64)

                isbc = kind_f[g_f] == 1
                rb2 = r_g[isbc]
                if rb2.size:
                    qb2 = q_g[isbc]
                    tb2 = t_g[isbc]
                    durb = t_bc[rb2]
                    bm = bc_mem[rb2]
                    if bm.any():
                        durb[bm] += memory_write(rb2[bm], tb2[bm])
                    shb = shared_f[g_f[isbc]]
                    rsn = rb2[shb]
                    if rsn.size:
                        hold = draw_holders(rsn)
                        hold[np.arange(rsn.size), qb2[shb]] = False
                        cu = cache_until[rsn]
                        cache_until[rsn] = np.where(
                            hold,
                            np.maximum(cu, tb2[shb][:, None])
                            + SNOOP_ACTION_CYCLES,
                            cu)
                    dur[isbc] = durb

                isrr = ~isbc
                rr2 = r_g[isrr]
                if rr2.size:
                    q2 = q_g[isrr]
                    t2 = t_g[isrr]
                    rr_f = g_f[isrr]
                    supwb = supwb_f[rr_f]
                    reqwb = reqwb_f[rr_f]
                    direct = supwb & c2c[rr2]
                    durr = np.where(direct, cache_supply, base_read)
                    nd = ~direct
                    if model_contention and nd.any():
                        durr[nd] += memory_write(rr2[nd], t2[nd])
                    flush = nd & supwb
                    if flush.any():
                        durr[flush] += t_block
                        memory_write(rr2[flush], t2[flush])
                    if reqwb.any():
                        durr[reqwb] += t_block
                        memory_write(rr2[reqwb], t2[reqwb])
                    sh2 = shared_f[rr_f]
                    rs2 = rr2[sh2]
                    if rs2.size:
                        qs = q2[sh2]
                        ts = t2[sh2]
                        rows = np.arange(rs2.size)
                        hold = draw_holders(rs2)
                        hold[rows, qs] = False
                        anyh = hold.any(axis=1)
                        firsth = hold.argmax(axis=1)
                        cs = csup_f[rr_f[sh2]]
                        react = hold
                        skip = cs & anyh
                        react[rows[skip], firsth[skip]] = False
                        cu = cache_until[rs2]
                        cache_until[rs2] = np.where(
                            react,
                            np.maximum(cu, ts[:, None])
                            + SNOOP_ACTION_CYCLES,
                            cu)
                        # The supplier (first sampled holder, else a
                        # uniformly random other cache) is tied up for
                        # the whole transaction.
                        sup = np.full(rs2.size, -1, dtype=np.int64)
                        sup[skip] = firsth[skip]
                        fb = cs & ~anyh
                        if fb.any():
                            rfb = rs2[fb]
                            pick = (lanes.take(rfb, 1)
                                    * (n[rfb] - 1)).astype(np.int64)
                            sup[fb] = pick + (pick >= qs[fb])
                        have = sup >= 0
                        rsup = rs2[have]
                        if rsup.size:
                            supc = sup[have]
                            cu2 = cache_until[rsup, supc]
                            cache_until[rsup, supc] = (
                                np.maximum(cu2, ts[have])
                                + durr[sh2][have])
                    dur[isrr] = durr

                bus_current[r_g] = q_g
                bus_start[r_g] = t_g
                bus_until[r_g] = t_g + dur

            # -- completions: cycle stats, warm-up / stop, next burst --
            if comp_r:
                rc = (comp_r[0] if len(comp_r) == 1
                      else np.concatenate(comp_r))
                fc = (comp_f[0] if len(comp_f) == 1
                      else np.concatenate(comp_f))
                tc = (comp_t[0] if len(comp_t) == 1
                      else np.concatenate(comp_t))
                cyc = tc - cstart_f[fc]
                meas = measuring[rc]
                rm = rc[meas]
                if rm.size:
                    cm = cyc[meas]
                    _wadd(cw_count, cw_mean, cw_m2, rm, cm)
                    if batch_take > 0:
                        idx = measured[rm]
                        inb = idx < batch_take
                        batch_sums[rm[inb], idx[inb] // batch_size] \
                            += cm[inb]
                    fm = fc[meas]
                    resp = np.maximum(
                        tc[meas] - fire_f[fm] - t_supply, 0.0)
                    # One sample per (kind, lane) pair, so a single
                    # flat-indexed Welford step updates all three kinds.
                    rix = kind_f[fm].astype(np.int64) * reps + rm
                    resp_count_f[rix] += 1
                    delta = resp - resp_mean_f[rix]
                    resp_mean_f[rix] += delta / resp_count_f[rix]
                    measured[rm] += 1
                completed[rc] += 1

                stop = np.zeros(rc.size, dtype=bool)
                stop[meas] = measured[rm] >= target
                rstop = rc[stop]
                if rstop.size:
                    done[rstop] = True
                    end_time[rstop] = tc[stop]
                    proc_time[rstop, :] = inf
                    bus_until[rstop] = inf
                    active -= rstop.size

                warm = (~meas) & (completed[rc] >= warmup)
                rw = rc[warm]
                if rw.size:
                    measuring[rw] = True
                    measure_start[rw] = tc[warm]
                    cw_count[rw] = 0
                    cw_mean[rw] = 0.0
                    cw_m2[rw] = 0.0
                    batch_sums[rw] = 0.0
                    wb_count[rw] = 0
                    wb_mean[rw] = 0.0
                    wb_m2[rw] = 0.0
                    sq_count[rw] = 0
                    sq_mean[rw] = 0.0
                    sq_m2[rw] = 0.0
                    if_count[rw] = 0
                    if_mean[rw] = 0.0
                    if_m2[rw] = 0.0
                    resp_count[:, rw] = 0
                    resp_mean[:, rw] = 0.0
                    bus_busy[rw] = 0.0
                    bus_tx[rw] = 0
                    mem_busy[rw] = 0.0
                    busy_cycles[rw] = 0.0
                    measured[rw] = 0

                # Next burst; the scalar engine draws one even for the
                # replication that just stopped (the event never runs
                # but its burst lands in busy_cycles), so the vector
                # engine does too.
                burst = draw_bursts(rc)
                mnow = measuring[rc]
                busy_cycles[rc[mnow]] += burst[mnow]
                go = ~stop
                rgo = rc[go]
                if rgo.size:
                    fgo = fc[go]
                    cstart_f[fgo] = tc[go]
                    state_f[fgo] = _EXEC
                    ptime_f[fgo] = tc[go] + burst[go]

        return self._collect(
            measure_start=measure_start, end_time=end_time,
            cw_count=cw_count, cw_mean=cw_mean,
            batch_sums=batch_sums, batch_size=batch_size,
            wb_count=wb_count, wb_mean=wb_mean, wb_m2=wb_m2,
            sq_count=sq_count, sq_mean=sq_mean,
            if_count=if_count, if_mean=if_mean,
            resp_count=resp_count, resp_mean=resp_mean,
            bus_busy=bus_busy, bus_tx=bus_tx,
            bus_current=bus_current, bus_start=bus_start,
            mem_busy=mem_busy, busy_cycles=busy_cycles)

    # -- estimates -----------------------------------------------------

    def _collect(self, *, measure_start, end_time, cw_count, cw_mean,
                 batch_sums, batch_size, wb_count, wb_mean, wb_m2,
                 sq_count, sq_mean, if_count, if_mean, resp_count,
                 resp_mean, bus_busy, bus_tx, bus_current, bus_start,
                 mem_busy, busy_cycles) -> list[VectorSimulationResult]:
        cfg = self.config
        arch = cfg.arch
        n_batches = cfg.n_batches
        elapsed = end_time - measure_start
        safe_elapsed = np.where(elapsed > 0.0, elapsed, np.inf)

        # N * (tau + T_supply): the contention-free cycle time scaled
        # to a speedup, per lane.
        scale = np.repeat(
            [cell.config.n_processors
             * (cell.config.effective_workload.tau + arch.t_supply)
             for cell in self._cells],
            [len(cell.seeds) for cell in self._cells])
        r_mean = np.where(cw_count > 0, cw_mean, np.nan)
        with np.errstate(invalid="ignore", divide="ignore"):
            speedup = np.where(r_mean > 0.0, scale / r_mean, 0.0)

        if batch_size > 0 and n_batches >= 2:
            bmeans = batch_sums / batch_size
            grand = bmeans.mean(axis=1)
            var = (((bmeans - grand[:, None]) ** 2).sum(axis=1)
                   / (n_batches - 1))
            t_crit = t_quantile(0.975, n_batches - 1)
            half = t_crit * np.sqrt(var / n_batches)
            with np.errstate(invalid="ignore", divide="ignore"):
                speedup_half = np.where(
                    grand > 0.0, scale * half / (grand ** 2), 0.0)
        else:
            speedup_half = np.zeros(self.reps, dtype=np.float64)

        # In-service bus time still pending at each lane's end.
        pending = np.where(
            bus_current >= 0,
            np.maximum(end_time - np.maximum(bus_start, measure_start),
                       0.0),
            0.0)
        u_bus = (bus_busy + pending) / safe_elapsed
        u_mem = mem_busy / (arch.memory_modules * safe_elapsed)
        power = busy_cycles / safe_elapsed
        w_bus = _wmean(wb_count, wb_mean)
        w_bus_stddev = _wstd(wb_count, wb_m2)
        q_bus_seen = _wmean(sq_count, sq_mean)
        interference = _wmean(if_count, if_mean)

        results: list[VectorSimulationResult] = []
        start = 0
        for cell in self._cells:
            lo, start = start, start + len(cell.seeds)
            part = slice(lo, start)
            config = cell.config
            results.append(VectorSimulationResult(
                n_processors=config.n_processors,
                protocol_label=config.protocol.label,
                sharing_label=f"{config.workload.sharing_fraction * 100:g}%",
                seeds=cell.seeds,
                requests_measured=cw_count[part].copy(),
                elapsed_cycles=elapsed[part].copy(),
                mean_cycle_time=r_mean[part].copy(),
                speedup=speedup[part].copy(),
                speedup_ci_halfwidth=speedup_half[part].copy(),
                processing_power=power[part].copy(),
                u_bus=u_bus[part].copy(),
                u_mem=u_mem[part].copy(),
                w_bus=w_bus[part].copy(),
                w_bus_stddev=w_bus_stddev[part].copy(),
                q_bus_seen=q_bus_seen[part].copy(),
                mean_interference_wait=interference[part].copy(),
                bus_transactions=bus_tx[part].copy(),
                response_means=resp_mean[:, part].copy(),
                response_counts=resp_count[:, part].copy(),
            ))
        return results


def plan_launches(
        cells: Sequence[tuple[SimulationConfig, Sequence[int]]],
) -> list[list[int]]:
    """Split ``(config, seeds)`` cells into launches.

    Returns lists of cell indices, one per launch, ordered by each
    launch's first cell.  Cells sharing :func:`launch_key` are packed in
    input order until the next one would push the launch past
    :data:`MAX_LAUNCH_LANES` lanes; a cell is never split, so a cell
    wider than the cap runs as a launch of its own.
    """
    launches: list[list[int]] = []
    open_launches: dict[tuple, tuple[list[int], int]] = {}
    for index, (config, seeds) in enumerate(cells):
        key = launch_key(config)
        indices, lanes = open_launches.get(key, (None, 0))
        if indices is None or lanes + len(seeds) > MAX_LAUNCH_LANES:
            indices, lanes = [], 0
            launches.append(indices)
        indices.append(index)
        open_launches[key] = (indices, lanes + len(seeds))
    return launches


def simulate_cells(
        cells: Sequence[tuple[SimulationConfig, Sequence[int]]],
) -> list[VectorSimulationResult]:
    """Run many ``(config, seeds)`` cells in the launches
    :func:`plan_launches` picks.

    The results come back one per cell, in input order, each
    bit-identical to a solo :func:`simulate_many` of that cell.
    """
    results: list[VectorSimulationResult | None] = [None] * len(cells)
    for indices in plan_launches(cells):
        launch = VectorSnoopingBusSimulator.from_cells(
            [cells[i] for i in indices])
        for index, result in zip(indices, launch.run()):
            results[index] = result
    return results  # type: ignore[return-value]


def simulate_many(config: SimulationConfig, reps: int,
                  seeds: Sequence[int] | None = None,
                  ) -> VectorSimulationResult:
    """Build, run, and collect one lockstep multi-replication run.

    ``seeds`` defaults to ``config.seed + r`` for replication ``r``;
    pass an explicit sequence (length ``reps``) to control each
    replication's stream.  This is a one-cell launch of the same engine
    :func:`simulate_cells` drives.
    """
    return VectorSnoopingBusSimulator(config, reps, seeds=seeds).run()[0]
