"""Spans around polarq's public functions, recorded from outside the package.

The tracer replaces each wrapped function at every binding a workload can
reach (``polarq.cli.spectrum`` as well as ``polarq.manybody.spectrum``,
because the CLI imports layer functions by name) and restores them on
``uninstall``.  ``QubitHamiltonian.apply`` is wrapped on the class, so the
matrix-vector products ARPACK makes are counted too.

Spans record name, start, end, parent span, pass id and thread.  They are
kept in memory and written out by the caller at the end of a run.  A span
opened on a thread with no open span of its own (a CLI worker thread) takes
the outermost open span, ``cli.run``, as its parent.  Self time is a span's
duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import polarq.cli  # noqa: F401 - imported so its bindings exist when wrapping
from polarq.manybody import QubitHamiltonian

# span name -> (module that defines the function, function name)
WRAPPED = {
    "cli.run": ("polarq.cli", "main"),
    "pendular.solve": ("polarq.pendular", "solve_pendular"),
    "lattice.couplings": ("polarq.lattice", "pair_couplings"),
    "manybody.build": ("polarq.manybody", "build_hamiltonian"),
    "manybody.spectrum": ("polarq.manybody", "spectrum"),
    "manybody.p_not_all_zero": ("polarq.manybody", "p_not_all_zero"),
    "manybody.energy_gap": ("polarq.manybody", "energy_gap"),
    "manybody.thermal_excitation": ("polarq.manybody", "thermal_excitation"),
    "entangle.reduce": ("polarq.entangle", "reduce"),
    "entangle.concurrence": ("polarq.entangle", "concurrence"),
    "circuits.compile": ("polarq.circuits.diagonal", "compile_diagonal"),
    "circuits.walsh": ("polarq.circuits.diagonal", "walsh_coefficients"),
    "circuits.simulate": ("polarq.circuits.core", "simulate"),
}
OBSERVABLES = ("manybody.p_not_all_zero", "manybody.energy_gap", "manybody.thermal_excitation")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while ``recording`` is true; passes calls through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self.pass_id = 0
        self._local = threading.local()
        self._outer: int | None = None
        self._lock = threading.Lock()
        self._solved: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._solved = set()
        self.recording = True

    def stop_pass(self) -> None:
        self.recording = False

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._outer
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, parent, self.pass_id,
                     threading.get_ident())
            )
            if parent is None:
                self._outer = idx
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is None:
            self._outer = None

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_of is not None:
                self.spans[idx].attrs = attrs_of(self, args, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Replace every wrapped function at each polarq binding of it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "polarq"]
        for name, (home, attr) in WRAPPED.items():
            fn = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        apply = QubitHamiltonian.apply
        self._restore.append((QubitHamiltonian, "apply", apply))
        QubitHamiltonian.apply = self._wrap("manybody.apply", apply)

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._restore):
            setattr(obj, attr, fn)
        self._restore.clear()

    # -- summarising ---------------------------------------------------------

    def layer_metrics(self, pass_id: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one pass, self times in seconds."""
        ids = [g for g, s in enumerate(self.spans) if s.pass_id == pass_id]
        spans = [self.spans[g] for g in ids]
        children: dict[int, list[Span]] = {g: [] for g in ids}
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        self_time = {
            g: (s.end - s.start) - covered(s.start, s.end, children[g])
            for g, s in zip(ids, spans)
        }

        def total(name: str) -> float:
            return sum(self_time[g] for g, s in zip(ids, spans) if s.name == name)

        def calls(name: str) -> int:
            return sum(1 for s in spans if s.name == name)

        def attr_sum(name: str, key: str) -> int:
            return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

        roots = [s for s in spans if s.parent is None]
        everything = (float("-inf"), float("inf"))
        return {
            "cli.run_s": sum(s.end - s.start for s in spans if s.name == "cli.run"),
            "cli.self_s": total("cli.run"),
            "pendular.solve_s": total("pendular.solve"),
            "pendular.solve_calls": calls("pendular.solve"),
            "lattice.couplings_s": total("lattice.couplings"),
            "lattice.couplings_calls": calls("lattice.couplings"),
            "manybody.build_s": total("manybody.build"),
            "manybody.build_calls": calls("manybody.build"),
            "manybody.dense_bytes": attr_sum("manybody.build", "dense_bytes"),
            "manybody.spectrum_s": total("manybody.spectrum"),
            "manybody.spectrum_calls": calls("manybody.spectrum"),
            "manybody.full_spectrum_calls": attr_sum("manybody.spectrum", "full"),
            "manybody.repeat_solves": attr_sum("manybody.spectrum", "repeat"),
            "manybody.apply_s": total("manybody.apply"),
            "manybody.matvecs": calls("manybody.apply"),
            "manybody.observables_s": sum(total(n) for n in OBSERVABLES),
            "entangle.reduce_s": total("entangle.reduce"),
            "entangle.concurrence_s": total("entangle.concurrence"),
            "entangle.pairs": calls("entangle.concurrence"),
            "circuits.compile_s": total("circuits.compile"),
            "circuits.walsh_s": total("circuits.walsh"),
            "circuits.cnots": attr_sum("circuits.compile", "cnots"),
            "circuits.simulate_s": total("circuits.simulate"),
            "circuits.simulate_calls": calls("circuits.simulate"),
            "circuits.gates_applied": attr_sum("circuits.simulate", "gates"),
            # pass time outside every span: the benchmark's own loop
            "trace.unattributed_s": wall - covered(*everything, roots),
            # self time counted twice because CLI worker threads ran at once
            "trace.overlap_s": sum(self_time.values()) - covered(*everything, spans),
        }

    def spans_as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(lo: float, hi: float, spans) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s.start, lo), min(s.end, hi)) for s in spans):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _build_attrs(tracer: Tracer, args, h) -> dict:
    return {"dense_bytes": h.dim * h.dim * 8 if h.matrix is not None else 0}


def _spectrum_attrs(tracer: Tracer, args, spec) -> dict:
    h = args[0]
    key = (h.n, h.qp, h.couplings)
    with tracer._lock:
        repeat = key in tracer._solved
        tracer._solved.add(key)
    return {"full": int(h.matrix is not None), "repeat": int(repeat)}


def _compile_attrs(tracer: Tracer, args, circuit) -> dict:
    return {"cnots": circuit.gate_count("CNOT")}


def _simulate_attrs(tracer: Tracer, args, state) -> dict:
    return {"gates": args[0].gate_count()}


_ATTRS = {
    "manybody.build": _build_attrs,
    "manybody.spectrum": _spectrum_attrs,
    "circuits.compile": _compile_attrs,
    "circuits.simulate": _simulate_attrs,
}
