"""``service_mixed``: an open-loop, miss-dominated load on ``QueryService``.

One process drives a service with ``workers="thread"`` and two shards.
The arrival schedule is drawn from the run's seed before the run starts
(three Poisson streams merged), and every latency is timed from the
request's *due* time, so a stall counts against every request it delays.

Traffic (per second offered, see :data:`RATES`):

* **static** queries -- envelope, hull-membership and steady-hull runs on
  mesh, hypercube and serial backends.  Two thirds are first seen (cache
  misses that run a driver); one third repeat one of the last
  :data:`REPEAT_WINDOW` static requests exactly (cache or in-flight hits).
  First-seen runs are drawn, in a seed-dependent order, from a fixed pool
  of :data:`POOL_SIZE` run coordinates so that each run's simulated time
  can be checked against ``reference.json``;
* **writes** -- ``mutate`` insert / delete / retarget on four dynamic
  families of 1024 curves seeded with the robust generator kinds, each
  on a live curve picked uniformly and each followed at once by a
  ``value_at`` read (read-your-write latency);
* **dynamic reads** -- ``submit_dynamic`` ``value_at`` on the same
  families.

Every answer is checked after the run against NumPy recomputations from
the inputs (``checks.py``) and the benchmark's own record of the dynamic
families' live curves.  Times are reported at a nominal host speed
(``harness.HostSpeed``), from calibration samples taken after each
set-up and, during the run, at moments when no request is in flight.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import numpy as np

import checks
from harness import (
    BenchError,
    HostSpeed,
    InvalidRun,
    Tally,
    load_reference,
    median,
    metric,
    quantile,
)

MACHINE_SIZE = 64
SHARDS = 2
POOL_SIZE = 4096
POOL_SEED = 20240611
#: Pool classes: 3 algorithms x 2 sizes x 3 backends.
CLASSES = 18
#: Offered arrivals per second of each stream (writes carry one read
#: each on top).  The event loop and both shard workers share one
#: interpreter lock, so the process does about one core of Python work;
#: at these rates it is about half busy (see README.md).
RATES = {"static": 60.0, "dynamic_read": 16.0, "write": 6.0}
SMOKE_RATES = {"static": 30.0, "dynamic_read": 10.0, "write": 4.0}
FIRST_SEEN_SHARE = 2.0 / 3.0
REPEAT_WINDOW = 64
DYNAMIC = [("dyn0", "random", "min"), ("dyn1", "duplicate", "max"),
           ("dyn2", "tangent", "min"), ("dyn3", "degree_boundary", "max")]
DYNAMIC_SIZE = {"full": 1024, "smoke": 128}
#: Ambiguity margin (radians) below which a hull-membership answer at a
#: time is not checked: the point is within float noise of the hull.
MARGIN = 1e-7
#: A run is invalid when the mean backlog over the last quarter of the
#: schedule exceeds GROWTH times the second quarter's plus SLACK, or
#: exceeds one second's worth of offered operations.
GROWTH, SLACK = 2.0, 10.0
DRAIN_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
#: Share of a traced run's schedule issued before tracing starts; the
#: service latencies of a traced run come from that part (over 1,000
#: misses in a 32 s run).
UNTRACED_SHARE = 0.9


#: The program's modules this workload imports (set-up times them).
MODULES = ("repro.service", "repro.trace.registry", "repro.verify.generators")
#: Calibration samples (``harness.HostSpeed``) taken after each set-up.
CALIBRATION_SAMPLES = 8
#: During the run, at most once per CALIBRATION_EVERY_S, the generator
#: takes one calibration sample (about 3.5 ms) when nothing is in flight
#: and the next arrival is still CALIBRATION_GAP_S away, so no request
#: waits for it.
CALIBRATION_GAP_S = 0.006
CALIBRATION_EVERY_S = 0.1


# ----------------------------------------------------------------------
# The static pool and requests
# ----------------------------------------------------------------------
def static_pool() -> list[tuple]:
    """Fixed run coordinates ``(algorithm, kind, seed, n, backend, run)``.

    There is no trace of real traffic to take shares from, so every
    choice is uniform: entry ``i`` is of class ``i % CLASSES``, one of
    the 18 (algorithm, size, backend) combinations -- envelope, hull
    membership or steady hull; two sizes each; mesh, hypercube or the
    serial oracle -- and its other parameters are drawn.  The sizes make
    a miss cost milliseconds to tens of milliseconds of driver work:
    envelope n 32 or 64 (op min or max), hull membership n 8 or 12 (a
    query index), steady hull n 8 or 16.
    """
    rng = np.random.default_rng(POOL_SEED)
    backends = ("mesh", "hypercube", "serial")
    pool = []
    for i in range(POOL_SIZE):
        c = i % CLASSES
        algorithm, size, backend = c // 6, (c // 3) % 2, backends[c % 3]
        if algorithm == 0:
            n = (32, 64)[size]
            run = ("op", str(rng.choice(["min", "max"])))
            pool.append(("envelope", "random", 100000 + i, n, backend, run))
        elif algorithm == 1:
            n = (8, 12)[size]
            run = ("query", int(rng.integers(n)))
            pool.append(("hull_membership", "random", 100000 + i, n,
                         backend, run))
        else:
            n = (8, 16)[size]
            pool.append(("steady_hull", "random", 100000 + i, n, backend,
                         None))
    return pool


def pool_order(seed: int) -> list[int]:
    """The order in which a run meets pool entries first.

    Every block of :data:`CLASSES` consecutive entries holds one of each
    class, so every run misses on the same mix of algorithms, sizes and
    backends; the entries and the order within a block come from the
    seed.  (Runs drawn from an unbalanced order spread 14-15% on the
    miss median against 8% for repeats of one seed.)
    """
    rng = np.random.default_rng([seed, 2])
    by_class = [rng.permutation(np.arange(c, POOL_SIZE, CLASSES))
                for c in range(CLASSES)]
    order = []
    for block in range(POOL_SIZE // CLASSES):
        for c in rng.permutation(CLASSES):
            order.append(int(by_class[c][block]))
    return order


def pool_request(spec: tuple, query):
    """The :class:`QueryRequest` for a pool entry and query parameters."""
    from repro.service import request

    algorithm, kind, seed, n, backend, run = spec
    params = dict(query or {})
    if run is not None:
        params[run[0]] = run[1]
    return request(algorithm, kind=kind, seed=seed, n=n, backend=backend,
                   **params)


def draw_query(algorithm: str, n: int, rng) -> dict:
    """One of the algorithm's two query kinds, each 1/2."""
    u = rng.random()
    if algorithm == "envelope":
        return ({"q": "value_at", "t": float(rng.uniform(0, 10))}
                if u < 0.5 else {"q": "full"})
    if algorithm == "hull_membership":
        return ({"q": "member_at", "t": float(rng.uniform(0, 10))}
                if u < 0.5 else {"q": "intervals"})
    return {"q": "is_extreme", "i": int(rng.integers(n))} if u < 0.5 \
        else {"q": "hull"}


# ----------------------------------------------------------------------
# The schedule
# ----------------------------------------------------------------------
def build_schedule(seed: int, seconds: float, rates: dict) -> list[tuple]:
    """Merged Poisson arrivals ``(offset_s, stream, uniform draws)``."""
    rng = np.random.default_rng([seed, 1])
    events = []
    for stream, rate in rates.items():
        t = float(rng.exponential(1.0 / rate))
        while t < seconds:
            events.append((t, stream, rng.random(4)))
            t += float(rng.exponential(1.0 / rate))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


class FamilyModel:
    """The benchmark's own record of one dynamic family's live curves.

    ``live`` maps curve id to ascending coefficients; ``ids``/``rows``
    hold the same curves in id order as a matrix, so the envelope's
    owner at a time can be found without a Python loop per curve.
    """

    def __init__(self, name: str, op: str, curves: list) -> None:
        self.name = name
        self.op = op
        self.live = {i: c for i, c in enumerate(curves)}
        self.initial = dict(self.live)
        self.ids = list(self.live)
        self.rows = padded(curves, width=3)
        self.next_id = len(curves)
        self.log: list[tuple] = []   # (action, curve id, coeffs)
        self.version = 0     # after every write issued so far
        self.confirmed = 0   # highest version a write receipt returned

    def pick(self, u: float) -> int:
        return self.ids[int(u * len(self.ids)) % len(self.ids)]

    def owner(self, t: float) -> int:
        """The live curve on the envelope at time ``t``."""
        vals = checks.horner(self.rows, t)
        return self.ids[int(vals.argmin() if self.op == "min"
                            else vals.argmax())]

    def near(self, cid: int, v: float) -> tuple:
        """A small perturbation of curve ``cid``: it crosses that curve."""
        base = np.asarray(self.live[cid], dtype=float)
        rng = np.random.default_rng(int(v * 2**32))
        return tuple(float(x) for x in
                     base + rng.normal(0.0, 0.05, base.shape)
                     * (np.abs(base) + 0.1))

    def apply(self, action: str, cid: int, coeffs) -> None:
        if action == "delete":
            del self.live[cid]
            k = self.ids.index(cid)
            del self.ids[k]
            self.rows = np.delete(self.rows, k, axis=0)
        elif action == "insert":
            self.live[cid] = coeffs
            self.ids.append(cid)
            self.rows = np.vstack([self.rows, padded([coeffs], width=3)])
        else:
            self.live[cid] = coeffs
            self.rows[self.ids.index(cid)] = padded([coeffs], width=3)[0]
        self.log.append((action, cid, coeffs))


def coeff_rows(curves: list) -> list[tuple]:
    return [tuple(float(x) for x in c.coeffs) for c in curves]


def padded(coeff_list, width: int = 0) -> np.ndarray:
    """Rows of ascending coefficients, zero-padded to a common width."""
    width = max([width] + [len(c) for c in coeff_list])
    out = np.zeros((len(coeff_list), width))
    for i, c in enumerate(coeff_list):
        out[i, :len(c)] = c
    return out


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, seed: int, seconds: float, traced: bool,
                 smoke: bool, rate_scale: float = 1.0) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.rates = {k: v * rate_scale for k, v in
                      (SMOKE_RATES if smoke else RATES).items()}
        self.dyn_n = DYNAMIC_SIZE["smoke" if smoke else "full"]
        self.pool = static_pool()
        self.order = pool_order(seed)
        self.schedule = build_schedule(seed, seconds, self.rates)
        self.records: list[dict] = []
        self.tasks: list[asyncio.Task] = []
        self.lags: list[float] = []
        self.backlog: list[int] = []
        self.completed = 0
        self.tracer = None
        self.host = HostSpeed()
        self.trace_from = math.inf
        self.owner_deletes: list[tuple] = []
        self.mid: dict = {}

    # -- set-up ---------------------------------------------------------
    async def setup(self):
        """Start the service, create the dynamic families, warm up."""
        from repro.service import QueryService, mutation, request
        from repro.verify.generators import make_curves

        svc = QueryService(shards=SHARDS, workers="thread",
                           machine_size=MACHINE_SIZE)
        await svc.start()
        self.models = {}
        for j, (name, kind, op) in enumerate(DYNAMIC):
            fseed = int(self.seed) * 8 + j
            receipt = await svc.mutate(mutation(name, "create", kind=kind,
                                                seed=fseed, n=self.dyn_n,
                                                op=op))
            curves = make_curves(kind, fseed, n=self.dyn_n, s=2)
            model = FamilyModel(name, op, coeff_rows(curves))
            model.version = model.confirmed = \
                receipt.payload["result"]["version"]
            self.models[name] = model
            await svc.submit_dynamic(name, q="value_at", t=1.0)
        warm = []
        for algorithm, n, extra in (("envelope", 32, {"op": "min"}),
                                    ("hull_membership", 8, {"query": 0}),
                                    ("steady_hull", 8, {})):
            for backend in ("mesh", "hypercube", "serial"):
                warm.append(request(algorithm, kind="random", seed=1, n=n,
                                    backend=backend, **extra))
        await svc.submit_many(warm)
        return svc

    # -- operations -----------------------------------------------------
    def _record(self, kind: str, due: float, **fields) -> dict:
        rec = {"kind": kind, "due": due, "done": None, "error": None,
               "traced": due >= self.trace_from}
        rec.update(fields)
        self.records.append(rec)
        return rec

    async def _static(self, svc, rec):
        try:
            resp = await svc.submit(rec["request"])
            rec["payload"] = resp.payload_bytes()
            rec["hit"] = bool(resp.meta.get("cache_hit")
                              or resp.meta.get("coalesced"))
        except Exception as exc:  # a failed request counts, never hangs
            rec["error"] = repr(exc)
        rec["done"] = time.perf_counter()
        self.completed += 1

    async def _dynamic_read(self, svc, rec):
        try:
            resp = await svc.submit_dynamic(rec["family"], q="value_at",
                                            t=rec["t"])
            rec["answer"] = resp.answer
            rec["version"] = resp.payload["family"]["version"]
            rec["hit"] = bool(resp.meta.get("cache_hit"))
        except Exception as exc:
            rec["error"] = repr(exc)
        rec["done"] = time.perf_counter()
        self.completed += 1

    async def _write(self, svc, rec, read):
        from repro.service import mutation

        try:
            params = {}
            if rec["action"] != "insert":
                params["curve_id"] = rec["curve_id"]
            if rec["coeffs"] is not None:
                params["coeffs"] = rec["coeffs"]
            resp = await svc.mutate(mutation(rec["family"], rec["action"],
                                             **params))
            rec["receipt"] = resp.payload["result"]
            model = self.models[rec["family"]]
            model.confirmed = max(model.confirmed,
                                  int(rec["receipt"].get("version") or 0))
            rec["done"] = time.perf_counter()
            # Read-your-write: at least this write's version, at most
            # that of the last write issued by now.
            read["expect_version"] = model.version
            got = await svc.submit_dynamic(read["family"], q="value_at",
                                           t=read["t"])
            read["answer"] = got.answer
            read["version"] = got.payload["family"]["version"]
            read["hit"] = bool(got.meta.get("cache_hit"))
        except Exception as exc:
            rec["error"] = repr(exc)
            read["error"] = "write failed"
        rec["done"] = rec["done"] or time.perf_counter()
        read["done"] = time.perf_counter()
        self.completed += 2

    def issue(self, svc, stream: str, u, due: float, state: dict) -> None:
        spawn = asyncio.get_running_loop().create_task
        if stream == "static":
            recent = state["recent"]
            if recent and u[0] >= FIRST_SEEN_SHARE:
                index, query = recent[int(u[1] * len(recent)) % len(recent)]
            else:
                index = self.order[state["next"] % len(self.order)]
                state["next"] += 1
                spec = self.pool[index]
                query = draw_query(spec[0], spec[3],
                                   np.random.default_rng(int(u[1] * 2**32)))
                recent.append((index, query))
                del recent[:-REPEAT_WINDOW]
            req = pool_request(self.pool[index], query)
            rec = self._record("static", due, index=index, request=req)
            self.tasks.append(spawn(self._static(svc, rec)))
            return
        model = self.models[DYNAMIC[int(u[0] * len(DYNAMIC))][0]]
        t = float(u[3] * 10.0)
        if stream == "dynamic_read":
            # Any version from the last one a receipt confirmed before
            # this read was issued up to the last write issued is right.
            rec = self._record("dynamic_read", due, family=model.name, t=t,
                               min_version=model.confirmed,
                               expect_version=model.version)
            self.tasks.append(spawn(self._dynamic_read(svc, rec)))
            return
        # Every write picks a live curve uniformly: an insert adds a
        # motion that crosses it, a delete removes it, a retarget moves
        # it onto a motion that crosses its old one.  A write whose
        # curve owns the envelope at t (``on_envelope``) changes what
        # reads see; deleting such a curve re-sweeps its windows.
        action = ("insert", "delete", "retarget")[int(u[1] * 3) % 3]
        picked = model.pick(u[2])
        on_envelope = picked == model.owner(t)
        if action == "insert":
            cid, coeffs = model.next_id, model.near(picked, u[2])
            model.next_id += 1
        elif action == "delete":
            cid, coeffs = picked, None
        else:
            cid, coeffs = picked, model.near(picked, u[2])
        model.apply(action, cid, coeffs)
        model.version += 1
        rec = self._record("write", due, family=model.name, action=action,
                           curve_id=cid, coeffs=coeffs,
                           on_envelope=on_envelope,
                           expect_version=model.version)
        read = self._record("visible_read", due, family=model.name, t=t,
                            min_version=model.version,
                            expect_version=model.version)
        self.tasks.append(spawn(self._write(svc, rec, read)))

    async def generate(self, svc) -> float:
        """Issue the schedule open loop; returns the start time."""
        state = {"recent": [], "next": 0}
        t_start = time.perf_counter() + 0.05
        if self.traced:
            self.trace_from = t_start + self.seconds * UNTRACED_SHARE
        issued = 0
        sampled = t_start
        for offset, stream, u in self.schedule:
            due = t_start + offset
            if self.tracer is not None and due >= self.trace_from \
                    and not self.mid:
                self.mid = self.snapshot(svc)
                self.tracer.install()
            delay = due - time.perf_counter()
            if delay > 2 * CALIBRATION_GAP_S \
                    and due - sampled >= CALIBRATION_EVERY_S:
                # Let what is in flight finish, then sample if all has.
                await asyncio.sleep(delay - 2 * CALIBRATION_GAP_S)
                if issued == self.completed and \
                        due - time.perf_counter() > CALIBRATION_GAP_S:
                    self.host.sample(1)
                    sampled = due
                delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            self.issue(svc, stream, u, due, state)
            issued += 2 if stream == "write" else 1
            self.backlog.append(issued - self.completed)
        return t_start

    async def main(self) -> dict:
        setups = []
        svc = None
        for _ in range(SETUP_REPEATS):
            if svc is not None:
                await svc.stop()
            t0 = time.perf_counter()
            svc = await self.setup()
            setups.append(time.perf_counter() - t0)
            self.host.sample(CALIBRATION_SAMPLES)
        if self.traced:
            from layers import LayerTracer

            self.tracer = LayerTracer(on_execute_batch=_batch_entry)
        start = self.snapshot(svc)
        try:
            t_start = await self.generate(svc)
            t_issued = time.perf_counter()
            if not self.tasks:
                raise BenchError("the schedule is empty; run longer")
            done, pending = await asyncio.wait(self.tasks,
                                               timeout=DRAIN_TIMEOUT_S)
            for task in done:
                task.result()
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                raise InvalidRun(f"{len(pending)} operations still open "
                                 f"{DRAIN_TIMEOUT_S:g} s after the schedule")
            t_drained = time.perf_counter()
            end = self.snapshot(svc)
            if self.tracer is not None:
                self.tracer.uninstall()
                self.owner_deletes = await self.delete_owners(svc)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            await svc.stop()
        return {"setups": setups, "start": start, "mid": self.mid,
                "end": end, "t_start": t_start, "t_issued": t_issued,
                "t_drained": t_drained}

    async def delete_owners(self, svc) -> list[tuple]:
        """After a traced run: delete the curve that owns each family's
        envelope at t = 5, timing each ``mutate`` (the event loop is
        blocked for all of it).  Returns ``(seconds, error)`` pairs."""
        from repro.service import mutation

        out = []
        for model in self.models.values():
            cid = model.owner(5.0)
            model.apply("delete", cid, None)
            model.version += 1
            t0 = time.perf_counter()
            try:
                resp = await svc.mutate(mutation(model.name, "delete",
                                                 curve_id=cid))
                got = resp.payload["result"].get("version")
                err = None if got == model.version else (
                    f"owner delete on {model.name}: version {got} != "
                    f"{model.version}")
            except Exception as exc:
                err = f"owner delete on {model.name}: {exc!r}"
            out.append((time.perf_counter() - t0, err))
        return out

    @staticmethod
    def snapshot(svc) -> dict:
        """Service stats, incremental-engine counters and the registry."""
        from layer_report import registry_values

        incr = {"certificates": 0, "events": 0}
        for name in svc.dynamic.names():
            st = svc.dynamic.engine(name).stats
            incr["certificates"] += st["certificates"]
            incr["events"] += st["events"]
        return {"stats": svc.stats(), "incremental": incr,
                "registry": registry_values()}


def _batch_entry(args, t0: float) -> tuple:
    """Run coordinates of an ``execute_batch`` payload and its start."""
    p = args[0]
    fam = p["family"]
    return ((p["algorithm"], fam["kind"], int(fam["seed"]), int(fam["n"]),
             p["backend"], json.dumps(p["run_params"], sort_keys=True)), t0)


def _request_coords(req) -> tuple:
    fam = req.family
    return (req.algorithm, fam.kind, int(fam.seed), int(fam.n), req.backend,
            json.dumps(req.run_params(), sort_keys=True))


# ----------------------------------------------------------------------
# Checks (after the run)
# ----------------------------------------------------------------------
def _envelope_answer(payload: dict, family, rng) -> str | None:
    curves = padded(coeff_rows(family.build()))
    op = payload["run_params"]["op"]
    answer = payload["answer"]
    if payload["query"]["q"] == "full":
        return checks.check_envelope(answer, curves, int, op,
                                     rng.uniform(0, 10, 8))
    t = float(payload["query"]["t"])
    vals, best = checks.envelope_values(curves, np.array([t]), op)
    if answer["value"] is None or not checks.close(answer["value"], best[0]):
        return f"envelope value_at {t!r}: {answer['value']!r} != {best[0]!r}"
    if not checks.close(vals[int(answer["label"]), 0], best[0]):
        return f"envelope value_at {t!r}: label {answer['label']} not the {op}"
    return None


def _membership_answer(payload: dict, family) -> str | None:
    C = checks.motion_coeffs(family.build(), family.degree)
    q = int(payload["run_params"]["query"])
    answer = payload["answer"]
    if payload["query"]["q"] == "member_at":
        samples = [(float(payload["query"]["t"]), bool(answer))]
    else:
        samples, prev = [], 0.0
        for lo, hi in answer:
            if lo > prev:
                samples.append((0.5 * (prev + lo), False))
            samples.append((0.5 * (lo + hi) if math.isfinite(hi)
                            else lo + 1.0, True))
            prev = hi
        if math.isfinite(prev):
            samples.append((prev + 1.0, False))
    for t, member in samples:
        margin = checks.extreme_margin(C, q, t)
        if margin is None or abs(margin) < MARGIN:
            continue
        if (margin > 0) != member:
            return (f"hull membership of {q} at t={t!r}: answer {member}, "
                    f"numpy hull says {margin > 0}")
    return None


def _steady_hull_answer(payload: dict, family) -> str | None:
    C = checks.motion_coeffs(family.build(), family.degree)
    answer = payload["answer"]
    if payload["query"]["q"] == "hull":
        return checks.check_steady_hull(C, answer)
    i = int(payload["query"]["i"])
    margins = [checks.extreme_margin(C, i, t) for t in (1e6, 1e7)]
    if any(m is None or abs(m) < MARGIN for m in margins) or \
            (margins[0] > 0) != (margins[1] > 0):
        return None
    if (margins[0] > 0) != bool(answer):
        return f"is_extreme {i}: answer {answer}, large-t hull says {margins[0] > 0}"
    return None


def check_static(rec: dict, reference: dict) -> str | None:
    payload = json.loads(rec["payload"])
    key = f"service_mixed/{rec['index']}"
    if key not in reference:
        raise BenchError(f"reference.json has no entry {key}")
    if payload["sim_time"] != reference[key]:
        return f"{key}: simulated time {payload['sim_time']!r} != {reference[key]!r}"
    family = rec["request"].family
    rng = np.random.default_rng(rec["index"])
    algorithm = payload["algorithm"]
    if algorithm == "envelope":
        return _envelope_answer(payload, family, rng)
    if algorithm == "hull_membership":
        return _membership_answer(payload, family)
    return _steady_hull_answer(payload, family)


def check_dynamic(records: list, models: dict, tally: Tally) -> None:
    """Dynamic reads against the replayed record; write receipts."""
    for rec in records:
        if rec["kind"] != "write":
            continue
        got = rec.get("receipt") or {}
        err = rec["error"]
        if err is None and got.get("version") != rec["expect_version"]:
            err = (f"write to {rec['family']}: version {got.get('version')} "
                   f"!= {rec['expect_version']}")
        if err is None and rec["action"] == "insert" and \
                got.get("curve_id") != rec["curve_id"]:
            err = f"insert id {got.get('curve_id')} != {rec['curve_id']}"
        tally.op(err is None, err or "")
    reads = []
    for rec in records:
        if rec["kind"] not in ("dynamic_read", "visible_read"):
            continue
        err = rec["error"]
        lo = rec["min_version"]
        if err is None and not lo <= rec["version"] <= rec["expect_version"]:
            err = (f"{rec['family']} value_at {rec['t']!r}: saw version "
                   f"{rec['version']}, expected {lo}..{rec['expect_version']}")
        if err is None:
            reads.append(rec)
        else:
            tally.op(False, err)
    for name, model in models.items():
        mine = sorted((r for r in reads if r["family"] == name),
                      key=lambda r: r["version"])
        live = dict(model.initial)
        v0 = model.version - len(model.log)
        applied = 0
        for rec in mine:
            while applied < rec["version"] - v0:
                action, cid, coeffs = model.log[applied]
                if action == "delete":
                    del live[cid]
                else:
                    live[cid] = coeffs
                applied += 1
            tally.op(*_read_verdict(rec, live, model))


def _read_verdict(rec: dict, live: dict, model: FamilyModel) -> tuple:
    """``(ok, note)`` for one dynamic read against the curves live at
    the version it saw."""
    where = f"{model.name} value_at {rec['t']!r} (version {rec['version']})"
    ids = sorted(live)
    vals, best = checks.envelope_values(padded([live[i] for i in ids]),
                                        np.array([rec["t"]]), model.op)
    ans = rec["answer"]
    if ans["value"] is None or not checks.close(ans["value"], best[0]):
        return False, f"{where}: {ans['value']!r} != {best[0]!r}"
    # Labels are positions in insertion-rank order, which is id order
    # here: ids are handed out increasing.
    row = None if ans["label"] is None else int(ans["label"])
    if row is None or not 0 <= row < len(ids) or \
            not checks.close(vals[row, 0], best[0]):
        return False, f"{where}: label {ans['label']} is not the {model.op}"
    return True, ""


def check_all(run: Run, reference: dict) -> Tally:
    tally = Tally()
    verdict: dict = {}
    first: dict = {}
    for rec in run.records:
        if rec["kind"] != "static":
            continue
        if rec["error"] is not None:
            tally.op(False, rec["error"])
            continue
        key = rec["request"].key()
        if key not in verdict:
            first[key] = rec["payload"]
            verdict[key] = check_static(rec, reference)
        err = verdict[key]
        if err is None and rec["payload"] != first[key]:
            err = f"repeat of {key} returned different payload bytes"
        tally.op(err is None, err or "")
    check_dynamic(run.records, run.models, tally)
    return tally


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ms(values, q: float) -> float:
    return 1e3 * quantile(values, q) if values else 0.0


def latencies(records: list) -> dict:
    ok = [r for r in records if r["error"] is None]
    static = [r for r in ok if r["kind"] == "static"]
    return {
        "miss": [r["done"] - r["due"] for r in static if not r["hit"]],
        "hit": [r["done"] - r["due"] for r in ok
                if r["kind"] in ("static", "dynamic_read") and r["hit"]],
        "visible": [r["done"] - r["due"] for r in ok
                    if r["kind"] == "visible_read"],
    }


def _hist(snap: dict, name: str) -> tuple:
    h = snap["stats"]["histograms"][name]
    return h["count"], h["sum"]


def _delta(a: dict, b: dict, *path) -> float:
    for key in path:
        a, b = a[key], b[key]
    return float(b) - float(a)


def run(workload: str, seed: int, seconds: float, traced: bool,
        smoke: bool, import_s: float, rate_scale: float = 1.0) -> dict:
    reference = load_reference()
    bench = Run(seed, seconds, traced, smoke, rate_scale)
    out = asyncio.run(bench.main())
    lag_p99 = _ms(bench.lags, 0.99)
    quarter = max(1, len(bench.backlog) // 4)
    early = float(np.mean(bench.backlog[quarter:2 * quarter]))
    late = float(np.mean(bench.backlog[-quarter:]))
    per_second = sum(bench.rates.values()) + bench.rates["write"]
    if late > GROWTH * early + SLACK or late > per_second:
        raise InvalidRun(f"backlog grew from {early:.1f} to {late:.1f} "
                         f"outstanding operations (generator lag p99 "
                         f"{lag_p99:.1f} ms)")
    tally = check_all(bench, reference)
    for _, err in bench.owner_deletes:
        tally.op(err is None, err or "")

    untraced = [r for r in bench.records if not r["traced"]]
    lat = latencies(untraced)
    if not lat["miss"]:
        raise BenchError("no cache misses in the measured window")
    # Driver runs and their wall time, from the service's own exact
    # histogram aggregates over the untraced window.
    count0, wall0 = _hist(out["start"], "worker_turnaround_s")
    count, wall = _hist(out["mid"] if traced else out["end"],
                        "worker_turnaround_s")
    runs = {_request_coords(r["request"]): r["request"].family.size()
            for r in untraced if r["kind"] == "static" and r["error"] is None
            and not r["hit"]}
    scale = bench.host.scale()
    raw = {"setup_s": import_s + median(out["setups"]),
           "solve_p50_s": median(lat["miss"]),
           "points_per_s": sum(runs.values()) / (wall - wall0)}
    e2e = {
        "setup_s": metric(raw["setup_s"] * scale, "s"),
        "solve_p50_s": metric(raw["solve_p50_s"] * scale, "s"),
        "points_per_s": metric(raw["points_per_s"] / scale, "points/s"),
    }
    window = out["t_issued"] - out["t_start"]
    writes: dict = {}
    for r in untraced:
        if r["kind"] == "write" and r["error"] is None:
            action = r["action"] + ("@owner" if r["on_envelope"] else "")
            writes.setdefault(action, []).append(r["done"] - r["due"])
    report = {
        "offered_per_s": {k: v for k, v in bench.rates.items()},
        "operations": len(bench.records),
        "misses": len(lat["miss"]), "hits": len(lat["hit"]),
        "writes": len(lat["visible"]),
        "driver_runs": int(count - count0), "distinct_missed_runs": len(runs),
        "miss_p50_ms": round(_ms(lat["miss"], 0.5), 3),
        "miss_p99_ms": round(_ms(lat["miss"], 0.99), 3),
        "hit_p50_ms": round(_ms(lat["hit"], 0.5), 3),
        "write_visible_p50_ms": round(_ms(lat["visible"], 0.5), 3),
        "write_p50_ms": {a: round(_ms(v, 0.5), 3)
                         for a, v in sorted(writes.items())},
        "write_counts": {a: len(v) for a, v in sorted(writes.items())},
        "generator_lag_p99_ms": round(lag_p99, 3),
        "backlog_end": bench.backlog[-1] if bench.backlog else 0,
        "backlog_mean_q2_q4": (round(early, 2), round(late, 2)),
        "schedule_s": round(window, 3),
        "drain_s": round(out["t_drained"] - out["t_issued"], 3),
        "setup_repeats_s": out["setups"], "import_s": import_s,
        "calibration_samples": len(bench.host.samples),
        "calibration_mean_ms": 1e3 * bench.host.mean_s(),
        "host_scale": scale, "raw": raw,
    }
    layer = _layer(bench, out, lat, lag_p99) if traced else None
    return {"tally": tally, "e2e": e2e, "layer": layer, "report": report,
            "tracer": bench.tracer}


def _layer(bench: Run, out: dict, lat_untraced: dict, lag_p99: float) -> dict:
    from layer_report import layer_metrics

    mid, end = out["mid"], out["end"]
    traced = [r for r in bench.records if r["traced"]]
    ops = max(1, len(traced))
    lat = latencies(traced)
    starts: dict = {}
    for coords, t0 in bench.tracer.entries():
        starts.setdefault(coords, []).append(t0)
    waits = []
    for r in traced:
        if r["kind"] == "static" and r["error"] is None and not r["hit"]:
            later = [t for t in starts.get(_request_coords(r["request"]), ())
                     if t >= r["due"] - 1e-6]
            if later:
                waits.append(min(later) - r["due"])
    totals = bench.tracer.layer_totals()
    window = out["t_drained"] - bench.trace_from
    s0, s1 = mid["stats"], end["stats"]
    lookups = (_delta(s0, s1, "counters", "requests")
               + _delta(s0, s1, "counters", "dynamic_queries"))
    hits = (_delta(s0, s1, "counters", "cache_hit_requests")
            + _delta(s0, s1, "counters", "coalesced_requests")
            + _delta(s0, s1, "counters", "dynamic_cache_hits"))
    batches = _delta(s0, s1, "counters", "batches")
    service = {
        "service.utilization": totals["service.worker"]["total_s"]
        / (SHARDS * window),
        "service.driver_p50_ms": 1e3 * median(
            bench.tracer.durations("run_driver") or [0.0]),
        "service.queue_wait_p50_ms": _ms(waits, 0.5),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.mean_batch_size": (
            _delta(s0, s1, "counters", "batched_requests") / batches
            if batches else 0.0),
        "service.dedup_hits": _delta(s0, s1, "counters", "dedup_hits") / ops,
        "service.invalidations": (
            _delta(s0, s1, "counters", "invalidated_keys") / ops),
        "service.miss_p99_ms": _ms(lat_untraced["miss"], 0.99),
        "service.hit_p50_ms": _ms(lat_untraced["hit"], 0.5),
        "service.write_visible_p50_ms": _ms(lat_untraced["visible"], 0.5),
        "service.generator_lag_p99_ms": lag_p99,
        "service.backlog_end": float(bench.backlog[-1]),
        "incremental.owner_delete_ms": 1e3 * median(
            [dt for dt, _ in bench.owner_deletes]),
        "incremental.certificates": (
            _delta(mid, end, "incremental", "certificates") / ops),
        "incremental.events": _delta(mid, end, "incremental", "events") / ops,
        "obs.events_dropped": (
            _delta(s0, s1, "events", "dropped")
            + _delta(s0, s1, "recorder", "events_dropped")) / ops,
        "obs.spans_dropped": (
            _delta(s0, s1, "counters", "spans_dropped")
            + _delta(s0, s1, "recorder", "spans_dropped")) / ops,
    }
    registry = {k: end["registry"][k] - mid["registry"][k]
                for k in end["registry"]}
    layer = layer_metrics(bench.tracer, n_ops=ops, registry=registry,
                          registry_ops=ops, service=service)
    base = median(lat_untraced["miss"])
    layer["trace.overhead_pct"] = metric(
        100.0 * (median(lat["miss"]) / base - 1.0) if lat["miss"] else 0.0,
        "%")
    layer["host.calibration_ms"] = metric(1e3 * bench.host.mean_s(), "ms")
    return layer
