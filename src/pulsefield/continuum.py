"""Transport solver for the phase density of a pulse-coupled continuum.

The density rho(theta, t) obeys the conservation law

    d(rho)/dt = -d(v * rho)/dtheta,      v(theta, t) = omega + K*Z(theta)*J0(t),

where the boundary flux J0 (the population firing rate) is determined
self-consistently by the density at the firing phase,

    J0 = omega * rho(0) / (1 - K*Z(0)*rho(0)),

and the flux is periodic while the density itself is not: rho(0) and
rho(2*pi) are distinct unknowns tied by

    rho(0)/(1 - K*Z(0)*rho(0)) = rho(2*pi)/(1 - K*Z(2*pi)*rho(2*pi)) = J0/omega.

The one stepping kernel is conservative first-order upwind in flux form:
node fluxes F_i = v_i * rho_i, inflow at theta=0 set to the outflow at
2*pi, so the discrete mass (right-endpoint Riemann sum over nodes 1..N)
telescopes to machine precision every step.  With K = 0 and the aligned
step dt = dtheta/omega (Courant number 1) the update is a sample rotation
to rounding.  The kernel is written out once, inline in ``integrate``'s
loop on buffers and views made once per run.  V on each logged row goes through a ``GridReference`` bound to the
run's grid, with the bits of the public quantile functions.  Once a run has
logged one ring of rows (RING_FLOATS // n_theta) in process, when the time
left still holds another ring of rows and ``fork_cpus`` allows two or more
CPUs, V on the rest goes to one forked helper (``_VHelper``) pinned off the
CPU the loop steps on, and the loop keeps stepping; the values keep their
bits, and under ``taskset -c 0`` V stays in process.  The helper calls this
module's ``quantile_transform`` and ``lyapunov_tv_with_qmin`` names, so
traced spans of them count only the rows evaluated in process.  After the
loop, ``first_crossing`` traces the characteristic from theta = 0 over the
recorded steps (``_walk``): the flux window up to its arrival brackets V's
decay rate.  ``check_admissibility`` judges an initial profile by
closed-form rules, or else from its run's own blow-up and first crossing,
without integrating again.

Synchronization shows up as a finite-time singularity and is detected by
fixed thresholds: the boundary relation's denominator falling under
``EPS_SING`` or the flux exceeding ``flux_cap(omega)`` (flux blow-up,
excitatory side), and the velocity stalling at min v <= EPS_SING*omega
(density blow-up, inhibitory side).
"""

from __future__ import annotations

import csv
import enum
import math
import mmap
import os
import signal
import sys
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from itertools import accumulate

import numpy as np

from .models import Monotonicity
from .quantile import GridReference, quantile_transform, lyapunov_tv_with_qmin

TWO_PI = 2.0 * math.pi
EPS_SING = 1e-8
# The V helper's ring holds RING_FLOATS // n_theta logged rows (32 at n_theta
# 2048, about 512 KiB); a run starts the helper once it has logged that many
# rows in process and only if as many are still to come, so a run of fewer
# than two rings never forks.
RING_FLOATS = 2**16
# CSV files go out ROW_BLOCK rows per write (``write_csv``): one block's floats
# and text, about 40 kB of trajectory rows, are alive at a time
ROW_BLOCK = 256


class CFLError(RuntimeError):
    """Time step too large for the explicit upwind update."""


@dataclass(frozen=True)
class BlowupEvent:
    """Finite-time synchronization detected by a threshold crossing."""

    t_fin: float
    kind: str            # 'flux' or 'density'
    witness: dict

    def to_json(self):
        return {"t_fin": self.t_fin, "kind": self.kind,
                "witness": {k: float(v) for k, v in self.witness.items()}}


class BlowupError(RuntimeError):
    """Internal signal carrying a BlowupEvent out of the stepping kernel."""

    def __init__(self, event: BlowupEvent):
        super().__init__(f"{event.kind} blow-up at t={event.t_fin:.6g}")
        self.event = event


def flux_cap(omega: float) -> float:
    """Flux past which a run reports a flux blow-up: 1e6 uncoupled rates."""
    return 1e6 * omega / TWO_PI


@dataclass
class DensityField:
    """Grid-sampled density with its self-consistent boundary flux.

    ``theta`` holds N+1 uniform nodes on [0, 2*pi]; node 0 and node N carry
    the two distinct boundary densities.  ``mass`` is the right-endpoint
    Riemann sum over nodes 1..N, the functional the upwind scheme conserves
    exactly.  ``boundary_jump`` is set by ``from_profile`` (telemetry only).
    """

    theta: np.ndarray
    rho: np.ndarray
    J0: float
    t: float = 0.0
    boundary_jump: float | None = dc_field(default=None, compare=False)

    @property
    def dtheta(self) -> float:
        return float(self.theta[1] - self.theta[0])

    @property
    def mass(self) -> float:
        return float(np.sum(self.rho[1:]) * self.dtheta)

    def copy(self) -> "DensityField":
        return DensityField(self.theta, self.rho.copy(), self.J0, self.t)

    @classmethod
    def from_profile(cls, model, K, rho_values, t: float = 0.0) -> "DensityField":
        """Build a consistent field from a raw nonnegative profile.

        The profile is normalized to unit discrete mass, then the boundary
        flux is computed from rho(2*pi) and rho(0) is overwritten with the
        value the flux relation dictates (an arbitrary profile will not
        satisfy it).  ``boundary_jump`` is the ratio rho(0)/rho(0+) of that
        value to the normalized profile's own value at node 0, the density
        jump the start carries at theta = 0+ (None when the profile is 0
        there).  A profile already past the critical boundary density
        raises ``BlowupError`` at construction; one without positive finite
        mass raises ``ValueError``.
        """
        rho = np.asarray(rho_values, dtype=float).copy()
        n = rho.size - 1
        theta = np.linspace(0.0, TWO_PI, n + 1)
        if np.any(rho < 0.0) or not np.all(np.isfinite(rho)):
            raise ValueError("initial density must be nonnegative and finite")
        mass = np.sum(rho[1:]) * (theta[1] - theta[0])
        if not (0.0 < mass < math.inf):
            raise ValueError(f"initial density needs positive finite mass, got {mass!r}")
        rho /= mass
        rho_0_plus = rho.item(0)
        J0 = _advance_boundary(rho, t, model.omega, K * float(model.prc(0.0)),
                               K * float(model.prc(TWO_PI)), math.inf)
        jump = rho.item(0) / rho_0_plus if rho_0_plus else None
        return cls(theta, rho, J0, t, jump)


# -- boundary relation and single steps -----------------------------------------


def _advance_boundary(rho_new, t, omega, kz0, kz_end, cap):
    """Outflow flux from rho(2*pi), then rho(0) from the flux relation; a
    flux above ``cap`` is a blow-up, dated ``t``: in a step, the step's
    start, the time of the run's last good state."""
    rho_end = rho_new.item(-1)
    den = 1.0 - kz_end * rho_end
    if den <= EPS_SING:
        raise BlowupError(BlowupEvent(t, "flux", {
            "rho_end": rho_end, "rho_critical": 1.0 / kz_end if kz_end else math.inf,
            "denominator": den, "eps_sing": EPS_SING}))
    J0 = omega * rho_end / den
    if J0 > cap:
        raise BlowupError(BlowupEvent(t, "flux", {"flux": J0, "flux_cap": cap}))
    v0 = omega + kz0 * J0
    if v0 <= EPS_SING * omega:
        raise BlowupError(BlowupEvent(t, "density", {
            "velocity_at_zero": v0, "flux": J0,
            "flux_critical": omega / abs(kz0) if kz0 < 0 else math.inf}))
    rho_new[0] = J0 / v0
    return J0


# -- initial conditions --------------------------------------------------------


def initial_density(kind: str, n_theta: int, model, K: float, *,
                    kappa: float = 2.0, mu: float = math.pi, epsilon: float = 0.2,
                    reference=None) -> DensityField:
    """Standard initial-condition families, normalized and boundary-consistent.

    ``uniform``    flat profile;
    ``vonmises``   exp(kappa*cos(theta - mu)), renormalized;
    ``perturbed``  rho_star(theta) * (1 + epsilon*cos(theta)), renormalized
                   (requires the ``StationaryState`` ``reference``; its
                   rho_star is resampled linearly onto a different grid).
    """
    theta = np.linspace(0.0, TWO_PI, n_theta + 1)
    if kind == "uniform":
        prof = np.full(n_theta + 1, 1.0 / TWO_PI)
    elif kind == "vonmises":
        prof = np.exp(kappa * (np.cos(theta - mu) - 1.0))
    elif kind == "perturbed":
        if reference is None:
            raise ValueError("perturbed initial condition needs a stationary reference")
        rr = reference.rho_star.rho
        if rr.size != n_theta + 1:
            rr = np.interp(theta, reference.rho_star.theta, rr)
        prof = rr * (1.0 + epsilon * np.cos(theta))
        if np.any(prof <= 0.0):
            raise ValueError("perturbation amplitude drives the density negative")
    else:
        raise ValueError(f"unknown initial condition {kind!r}")
    return DensityField.from_profile(model, K, prof)


# -- V on logged rows --------------------------------------------------------------


def fork_cpus() -> set:
    """The CPUs that processes forked from here may use: the ones this
    process may run on (``os.sched_getaffinity``), and none where processes
    cannot be forked or in a forked worker, which never forks again.  A
    process that has not loaded multiprocessing is no worker of it, so
    multiprocessing is not imported to ask."""
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (mp is not None and mp.parent_process() is not None):
        return set()
    try:
        return set(os.sched_getaffinity(0))
    except AttributeError:   # no CPU affinity on this platform
        return set(range(os.cpu_count() or 1))


def _running_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read()
        return int(stat[stat.rindex(b")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _fork_server(serve, close=()) -> tuple:
    """Fork one process that runs ``serve(ready, done)`` on the read end of
    a ``ready`` pipe and the write end of a ``done`` pipe, and return (its
    pid, the parent's ``ready`` write end, the parent's ``done`` read end).
    The child closes the parent's two ends and the descriptors in ``close``
    (those of earlier servers, which would keep their pipes open), and ends
    with ``os._exit``: the code ``serve`` returns, or 1 when it raises, so
    it never flushes the parent's buffers or prints a traceback."""
    fds: list = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    ready_r, ready_w, done_r, done_w = fds
    if pid == 0:
        code = 1
        try:
            for fd in (ready_w, done_r, *close):
                os.close(fd)
            code = serve(ready_r, done_w)
        finally:
            os._exit(code)
    os.close(ready_r)
    os.close(done_w)
    return pid, ready_w, done_r


def _v_row(grid: GridReference, rho) -> tuple:
    """(V, q_min, failed) of one logged density; only an undefined V (a
    ValueError) fails, and then both values are NaN."""
    try:
        return (*lyapunov_tv_with_qmin(quantile_transform(grid.theta, rho, into=grid),
                                       grid), False)
    except ValueError:   # QuantileDegenerateError: V undefined on this row
        return math.nan, math.nan, True


class _VHelper:
    """One forked process (``_fork_server``) that evaluates ``_v_row`` on a
    run's logged rows.

    The parent copies a row's density into the next slot of a shared
    anonymous mmap ring and writes one byte to the ``ready`` pipe; the
    helper writes (V, q_min, failed) into the slot and one byte to the
    ``done`` pipe.  Rows go round the ring in order, so each side knows a
    row's slot by counting bytes.  The helper runs on the parent's CPUs
    minus the one the parent ran on when it forked (unpinned when /proc or
    sched_setaffinity fails).  It stops at the first exception other than
    V's ValueError, or when the parent closes ``ready``; the parent then
    evaluates every row the helper did not finish itself, in order, so no
    row is lost and V's bugs raise in the parent.  ``store(row, V, q_min,
    failed)`` receives every result; ``helped`` counts those the helper
    made.
    """

    def __init__(self, grid: GridReference, n_nodes: int, slots: int, cpus: set, store):
        self.grid, self.slots, self.store = grid, slots, store
        self.rows: deque = deque()   # logged rows sent and not yet stored, in order
        self.sent = self.helped = 0
        self.alive = True
        cpu = _running_cpu()
        ring = mmap.mmap(-1, 8 * slots * (n_nodes + 3))
        view = np.frombuffer(ring, float).reshape(slots, n_nodes + 3)
        self.rho, self.out = view[:, :n_nodes], view[:, n_nodes:]

        def serve(ready, done):
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, cpus - {cpu})
                except (OSError, ValueError):
                    pass
            return self._serve(ready, done)

        self.pid, self._ready, self._done = _fork_server(serve)
        os.set_blocking(self._done, False)

    def _serve(self, ready: int, done: int) -> int:
        """The helper's loop, until the parent closes ``ready``."""
        k = 0
        while got := os.read(ready, 4096):
            for _ in got:
                slot = k % self.slots
                self.out[slot] = _v_row(self.grid, self.rho[slot])
                os.write(done, b"\0")
                k += 1
        return 0

    def submit(self, row: int, rho) -> bool:
        """Send logged row ``row`` with its density; False when no slot is
        free or the helper is gone, and the caller evaluates it."""
        self.collect()
        if not self.alive or len(self.rows) == self.slots:
            return False
        np.copyto(self.rho[self.sent % self.slots], rho)
        try:
            os.write(self._ready, b"\0")
        except BrokenPipeError:
            self.collect()
            return False
        self.rows.append(row)
        self.sent += 1
        return True

    def collect(self, wait: bool = False):
        """Store the rows the helper has finished (with ``wait``, every row
        sent); once it is gone, evaluate the rest here, in order."""
        if wait:
            os.set_blocking(self._done, True)
        while self.rows:
            try:
                got = os.read(self._done, len(self.rows))
            except BlockingIOError:
                return
            if not got:
                self.alive = False
                while self.rows:
                    self._store(from_helper=False)
                return
            for _ in got:
                self._store(from_helper=True)

    def _store(self, from_helper: bool):
        """Store the oldest row in flight: the helper's values, or V
        evaluated here on the row's copy in the ring."""
        slot = (self.sent - len(self.rows)) % self.slots
        row = self.rows.popleft()
        if from_helper:
            v_val, q_val, failed = self.out[slot].tolist()
            self.helped += 1
            self.store(row, v_val, q_val, failed != 0.0)
        else:
            self.store(row, *_v_row(self.grid, self.rho[slot]))

    def close(self):
        """End the helper (at once when rows are still in flight) and reap it."""
        os.close(self._ready)
        os.close(self._done)
        if self.rows:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


# -- CSV artifacts ----------------------------------------------------------------


def write_csv(path, header: Sequence, floats: Sequence, names: Sequence | None = None):
    """A CSV file of the ``header`` names and one row per index of the
    ``floats`` columns (float64 arrays), with ``names`` (text that needs no
    quoting) as a last column when given.  Floats as ``repr`` writes them
    and \\r\\n line ends give the bytes csv.writer gives.  The rows go out
    ROW_BLOCK per write, each block's columns taken by ``tolist`` on slices,
    so one block's floats and text are alive at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(floats[0]), ROW_BLOCK):
            cells = [list(map(repr, c[i:i + ROW_BLOCK].tolist())) for c in floats]
            if names is not None:
                cells.append(names[i:i + ROW_BLOCK])
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


# -- trajectory integration ------------------------------------------------------


@dataclass
class TrajectoryLog:
    """Strided time series of a run plus the dense flux history.

    Columns mirror ``trajectory.csv``: t, J0, mass, rho_min, rho_max, V,
    q_min, event.  V and q_min are NaN when no stationary reference exists.
    The dense (per-step) history -- times ``dense_t``, the steps taken
    ``dense_dt`` and the flux ``dense_J0`` -- supports characteristic tracing.
    ``dense_dt``, ``stop_reason`` ('t_max', 'blowup' or 'max_steps'),
    ``n_steps``, ``v_eval_failures`` (log rows whose V raised),
    ``v_helper_rows`` (log rows whose V the forked helper evaluated) and the
    first crossing (its time and flux window; None when the run ended
    first) are known for integrated runs and None for one read from CSV.  ``summary()``
    reports the smallest and largest of ``dense_dt`` as dt_min and dt_max.
    An integrated run's seven numeric columns, ``dense_dt`` and ``dense_J0``
    view the float64 buffers its loop filled.
    """

    t: np.ndarray
    J0: np.ndarray
    mass: np.ndarray
    rho_min: np.ndarray
    rho_max: np.ndarray
    V: np.ndarray
    q_min: np.ndarray
    event: list
    blowup: BlowupEvent | None
    dense_t: np.ndarray
    dense_dt: np.ndarray | None
    dense_J0: np.ndarray
    first_crossing_time: float | None
    J_window: tuple | None
    initial: DensityField | None
    final: DensityField | None
    snapshots: list = dc_field(default_factory=list)
    stop_reason: str | None = None
    n_steps: int | None = None
    v_eval_failures: int | None = None
    v_helper_rows: int | None = None

    COLUMNS = ("t", "J0", "mass", "rho_min", "rho_max", "V", "q_min", "event")

    def to_csv(self, path):
        write_csv(path, self.COLUMNS, (self.t, self.J0, self.mass, self.rho_min,
                                       self.rho_max, self.V, self.q_min), self.event)

    @classmethod
    def from_csv(cls, path):
        """The log a ``trajectory.csv`` holds: its seven numeric columns,
        parsed into float64 buffers as the rows are read, and the event
        names; the last named event is the blow-up."""
        columns = [array("d") for _ in range(7)]
        appends = [c.append for c in columns]
        events: list = []
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, [])
            if tuple(header) != cls.COLUMNS:
                raise ValueError(f"{path}: unexpected trajectory columns {header}")
            for row in r:
                if len(row) != len(cls.COLUMNS):
                    raise ValueError(f"{path}: line {r.line_num} has {len(row)} fields, "
                                     f"expected {len(cls.COLUMNS)}")
                for append, value in zip(appends, row):
                    append(float(value))
                events.append(row[7])
        if not events:
            raise ValueError(f"{path}: no trajectory rows")
        t, J0, mass, rho_min, rho_max, V, q_min = map(np.frombuffer, columns)
        blow = None
        for i, ev in enumerate(events):
            if ev:
                blow = BlowupEvent(t.item(i), ev.replace("_blowup", ""), {})
        return cls(t, J0, mass, rho_min, rho_max, V, q_min, events,
                   blow, t, None, J0, None, None, None, None)

    def summary(self) -> dict:
        def num(x):
            x = float(x)
            return x if math.isfinite(x) else None

        out = {
            "t_final": num(self.t[-1]) if self.t.size else None,
            "J0_final": num(self.J0[-1]) if self.t.size else None,
            "mass_drift": num(np.max(np.abs(self.mass - self.mass[0]))) if self.t.size else None,
            "V_first": num(self.V[0]) if self.t.size else None,
            "V_final": num(self.V[-1]) if self.t.size else None,
            "blowup": self.blowup.to_json() if self.blowup else None,
            "first_crossing_time": self.first_crossing_time,
            "J_window": list(self.J_window) if self.J_window else None,
            "stop_reason": self.stop_reason,
            "n_steps": self.n_steps,
            "v_eval_failures": self.v_eval_failures,
            "v_helper_rows": self.v_helper_rows,
        }
        # the step-size range, from the steps an integrated run took
        steps = self.dense_dt if self.dense_dt is not None else np.empty(0)
        out["dt_min"] = float(steps.min()) if steps.size else None
        out["dt_max"] = float(steps.max()) if steps.size else None
        return out


def integrate(model, K: float, initial: DensityField, *, t_max: float,
              cfl: float = 0.5, dt: float | None = None,
              log_stride: int = 20, reference=None, snapshot_times=(),
              snapshot_stride: int | None = None,
              max_steps: int = 20_000_000) -> TrajectoryLog:
    """March the density to ``t_max``, a blow-up or ``max_steps`` steps,
    logging every ``log_stride`` steps.

    The step size follows the CFL condition dt = cfl * dtheta / max(v)
    (recomputed every step since the velocity depends on the flux), unless a
    fixed ``dt`` is given -- the aligned runs use dt = dtheta/omega to make
    transport at K = 0 a rotation.  When a ``StationaryState`` reference is
    supplied, the quantile Lyapunov distance V and the minimum quantile
    density are logged alongside the flux: in process for the first
    RING_FLOATS // n_theta rows, then, when the time left (``t_max - t``
    over the last step) still holds that many rows again and ``fork_cpus``
    allows two or more CPUs, by one forked ``_VHelper`` while the loop
    steps on (the parent evaluates a row itself when the helper's ring is
    full, and every row the helper did not finish when it stops).  The
    helper is reaped before this returns or raises.  Blow-up thresholds are
    ``EPS_SING`` and ``flux_cap(omega)``; a blow-up is dated at the start of
    the step that meets it, the time of its logged row.

    The loop holds the one copy of the upwind kernel, written out inline on
    views made once per run.  A fixed ``dt``
    past the CFL limit raises ``CFLError``, and a ``log_stride`` below 1
    raises ``ValueError``.  The loop records each step; ``first_crossing``
    traces over them afterwards for the first-crossing time and flux window
    (None when the run ends first).
    """
    if dt is not None and not dt > 0.0:
        raise ValueError(f"fixed dt must be positive, got {dt!r}")
    if log_stride < 1:
        raise ValueError(f"log_stride must be at least 1, got {log_stride!r}")
    omega = model.omega
    cap = flux_cap(omega)
    theta = initial.theta
    dtheta = initial.dtheta
    kz = K * model.prc(theta)
    # extremes of the velocity omega + kz*J0 come from kz's two extremes
    # (exact: rounding is monotone); the kernel's scalars are Python floats
    kz_lo, kz_hi = float(kz.min()), float(kz.max())
    kz0, kz_end = kz.item(0), kz.item(-1)
    stall = EPS_SING * omega
    stall_kind = "density" if kz0 < 0.0 or kz_end < 0.0 else "flux"
    cfl_dtheta = cfl * dtheta if dt is None else None
    dtheta_tol = dtheta * (1.0 + 1e-12)

    # V on every logged row against one reference bound to this grid
    grid = GridReference(reference.profile(), theta) if reference is not None else None

    # the step writes into `spare` and the two buffers swap roles; the views
    # of their nodes 1..N and of the flux differences are made once
    rho = initial.rho.copy()
    spare = np.empty_like(rho)
    flux = np.empty_like(rho)
    body, spare_body = rho[1:], spare[1:]
    flux_hi, flux_lo = flux[1:], flux[:-1]
    J0 = float(initial.J0)
    t = initial.t

    # the logged columns and the per-step history are float64 buffers, 8
    # bytes a value, that the returned log views in place
    columns = [array("d") for _ in range(7)]
    rows_t, rows_j, rows_m, rows_lo, rows_hi, rows_v, rows_q = columns
    events: list = []
    dense_j, dense_dt = array("d", [J0]), array("d")
    snaps: list = []
    snap_queue = sorted(float(s) for s in snapshot_times)

    v_failures = 0
    # past one ring of rows logged here, V goes to a helper if this process
    # may fork onto two CPUs
    ring_rows = max(1, RING_FLOATS // (theta.size - 1))
    helper, may_fork = None, True

    def store(row, v_val, q_val, failed):
        nonlocal v_failures
        rows_v[row], rows_q[row] = v_val, q_val
        v_failures += failed

    def log_row(ev=""):
        nonlocal helper, may_fork
        row = len(rows_t)
        rows_t.append(t)
        rows_j.append(J0)
        rho_min = float(rho.min())
        rows_m.append(float(body.sum() * dtheta))
        rows_lo.append(rho_min)
        rows_hi.append(float(rho.max()))
        rows_v.append(math.nan)
        rows_q.append(math.nan)
        events.append(ev)
        if grid is None or rho_min < 0.0:
            return
        if may_fork and row >= ring_rows:
            may_fork = False
            # only when the time left, in steps of the last one, still holds
            # one more ring of rows (a blow-up row is the run's last)
            if not ev and t_max - t >= ring_rows * log_stride * dense_dt[-1]:
                cpus = fork_cpus()
                if len(cpus) >= 2:
                    try:
                        helper = _VHelper(grid, rho.size, ring_rows, cpus, store)
                    except OSError:   # no process or pipe to spare: V stays here
                        pass
        if helper is None or not helper.submit(row, rho):
            store(row, *_v_row(grid, rho))

    blow = None
    nstep = 0
    # fixed stepping (aligned runs) stops at the nearest multiple of dt; the
    # step size is dt itself, or the CFL size capped at the time left
    fixed = dt is not None
    half_dt = 0.5 * dt if fixed else None
    step_dt = dt
    log_left = log_stride   # steps to the next logged row
    t_snap = snap_queue[0] - 1e-12 if snap_queue else math.inf
    multiply, add, subtract = np.multiply, np.add, np.subtract
    dense_j_append, dense_dt_append = dense_j.append, dense_dt.append
    try:
        log_row()
        while True:
            if (t_max - t < half_dt) if fixed else (t >= t_max):
                stop_reason = "t_max"
                break
            if nstep >= max_steps:
                stop_reason = "max_steps"
                break
            # the upwind kernel: rho -> spare
            try:
                vmin = omega + kz_lo * J0
                vmax = omega + kz_hi * J0
                if J0 < 0.0:
                    vmin, vmax = vmax, vmin
                if vmin <= stall:
                    raise BlowupError(BlowupEvent(t, stall_kind, {
                        "min_velocity": vmin, "stall_threshold": stall, "flux": J0}))
                if not fixed:
                    step_dt = cfl_dtheta / vmax
                    rest = t_max - t
                    if rest < step_dt:
                        step_dt = rest
                if step_dt * vmax > dtheta_tol:
                    raise CFLError(f"dt={step_dt:.3e} exceeds dtheta/max(v)={dtheta / vmax:.3e}")
                # node fluxes v*rho; inflow equals outflow: both ends carry J0
                multiply(kz, J0, flux)
                add(flux, omega, flux)
                multiply(flux, rho, flux)
                flux[0] = J0
                flux[-1] = J0
                subtract(flux_hi, flux_lo, spare_body)
                multiply(spare_body, step_dt / dtheta, spare_body)
                subtract(body, spare_body, spare_body)
                # a blow-up here is dated, like a stall, at the step's start:
                # the time of the row it logs
                J0 = _advance_boundary(spare, t, omega, kz0, kz_end, cap)
            except BlowupError as exc:
                blow = exc.event
                stop_reason = "blowup"
                log_row(ev=f"{blow.kind}_blowup")
                break
            rho, spare = spare, rho
            body, spare_body = spare_body, body
            t += step_dt
            nstep += 1
            dense_j_append(J0)
            dense_dt_append(step_dt)
            if t >= t_snap:
                while snap_queue and t >= snap_queue[0] - 1e-12:
                    snaps.append((t, rho.copy()))
                    snap_queue.pop(0)
                t_snap = snap_queue[0] - 1e-12 if snap_queue else math.inf
            if snapshot_stride and nstep % snapshot_stride == 0:
                snaps.append((t, rho.copy()))
            log_left -= 1
            if not log_left:
                log_left = log_stride
                log_row()
        if blow is None and (not rows_t or rows_t[-1] < t):
            log_row()
        if helper is not None:
            helper.collect(wait=True)
    finally:
        if helper is not None:
            helper.close()

    # the step times summed as the loop summed them, one float at a time
    dense_t = np.fromiter(accumulate(dense_dt, initial=initial.t), float, nstep + 1)
    t_cross, j_window = first_crossing(dense_t, dense_dt, dense_j, model, K)

    # `rho` is this run's own buffer: the final field takes it as is
    final = DensityField(theta, rho, J0, t)
    return TrajectoryLog(*map(np.frombuffer, columns), events, blow, dense_t,
                         np.frombuffer(dense_dt), np.frombuffer(dense_j), t_cross, j_window,
                         initial.copy(), final, snaps,
                         stop_reason, nstep, v_failures,
                         0 if helper is None else helper.helped)


# -- characteristics -------------------------------------------------------------


def _walk(t: np.ndarray, dt: Sequence, J0: Sequence, model, K: float, lam0: float) -> tuple:
    """RK2 walk of d(theta)/dt = omega + K*Z(theta)*J0(t) from theta = lam0
    at t[0].  Over step i, from t[i] by dt[i] with the flux going
    J0[i] -> J0[i+1] (t an ascending array, dt and J0 float sequences that
    index to Python floats: the run's float64 buffers or lists), it
    takes one RK2 step with the mean flux at the midpoint.  Returns the
    phases at the step starts walked (and at the end when the steps run
    out), the midpoint phases, and the time theta first reaches 2*pi, linear
    within its step (None when the steps end first).  Z on one float skips
    the array wrapper."""
    omega, prc, two_pi = model.omega, model._prc_fn, TWO_PI
    lam = lam0
    starts, mids = [lam], []
    # Z's argument is min(phase, 2*pi), NaN passed on as min passes it
    for i, h in enumerate(dt):
        j_a = J0[i]
        v1 = omega + K * float(prc(two_pi if two_pi < lam else lam)) * j_a
        lam_mid = lam + 0.5 * h * v1
        mids.append(lam_mid)
        v2 = omega + K * float(prc(two_pi if two_pi < lam_mid else lam_mid)) * (
            0.5 * (j_a + J0[i + 1]))
        lam_new = lam + h * v2
        if lam_new >= two_pi:
            return starts, mids, t.item(i) + (two_pi - lam) / (lam_new - lam) * h
        lam = lam_new
        starts.append(lam)
    return starts, mids, None


def first_crossing(t: np.ndarray, dt: Sequence, J0: Sequence, model, K: float) -> tuple:
    """(t_cross, J_window): when the characteristic launched from theta = 0
    at t[0] first reaches 2*pi along ``_walk``'s steps, and (min, max) of J0
    up to then; (None, None) when the steps end first."""
    t_cross = _walk(t, dt, J0, model, K, 0.0)[2]
    if t_cross is None:
        return None, None
    seen = J0[:int(np.searchsorted(t, t_cross + 1e-15, side="right"))]
    return t_cross, (min(seen), max(seen))


# -- admissibility ----------------------------------------------------------------


class AdmissibilityVerdict(enum.Enum):
    ALWAYS_BY_SIGN = "admissible_boundary_sign"     # K*Z(2*pi) <= 0, any positive profile
    SUFFICIENT_BOUND = "admissible_below_bound"     # rho0 < 1/(K*Z) everywhere
    NUMERICAL_OK = "admissible_numerically"
    NUMERICAL_BLOWUP = "inadmissible_numerically"
    UNDECIDED = "undecided_run_ended_first"


@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: AdmissibilityVerdict
    detail: dict


def check_admissibility(rho0: DensityField, model, K: float, *, blowup: BlowupEvent | None,
                        first_crossing_time: float | None) -> AdmissibilityReport:
    """Decide whether an initial field keeps the flux finite and positive
    until every oscillator has crossed the firing phase once.

    Closed-form verdicts apply to contracting dynamics (K*Z' < 0): a
    non-positive boundary value of K*Z admits every positive profile, and
    rho0 < 1/(K*Z) pointwise is sufficient otherwise.  K = 0 admits every
    profile (the boundary denominator is 1 and v = omega).  Any other case
    is read from the run started at ``rho0``: its ``blowup`` (None if it
    had none) against the time its characteristic from theta = 0 first
    reached 2*pi (None if the run ended first).  Nothing is integrated here.
    """
    prof = rho0.rho
    z = model.prc(rho0.theta)
    kz_end = K * float(z[-1])

    kz_mono = model.monotonicity
    contracting = (K < 0 and kz_mono is Monotonicity.INCREASING) or \
                  (K > 0 and kz_mono is Monotonicity.DECREASING)
    strictly_positive = bool(np.all(prof > 0.0))

    if K == 0.0 or (contracting and strictly_positive and kz_end <= 0.0):
        return AdmissibilityReport(AdmissibilityVerdict.ALWAYS_BY_SIGN,
                                   {"kz_end": kz_end})
    if contracting and strictly_positive and kz_end > 0.0:
        bound = 1.0 / (K * z)
        if np.all(prof < bound):
            margin = float(np.min(bound - prof))
            return AdmissibilityReport(AdmissibilityVerdict.SUFFICIENT_BOUND,
                                       {"kz_end": kz_end, "margin": margin})

    if blowup is not None and (first_crossing_time is None or
                               blowup.t_fin <= first_crossing_time):
        return AdmissibilityReport(AdmissibilityVerdict.NUMERICAL_BLOWUP,
                                   {"blowup": blowup.to_json()})
    if first_crossing_time is None:
        return AdmissibilityReport(AdmissibilityVerdict.UNDECIDED, {})
    return AdmissibilityReport(AdmissibilityVerdict.NUMERICAL_OK,
                               {"first_crossing_time": first_crossing_time})
