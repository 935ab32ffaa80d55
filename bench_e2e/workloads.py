"""The benchmark's workloads: set-up, one timed op, and its checks.

Each workload drives the compiler through a public entry point only
(``CompileSession`` in process, or a build daemon over its socket).
The expected program output always comes from the IL interpreter
(``repro.interp.run_program``) on the generated sources; the compiler's
own output is never the reference.
"""

from __future__ import annotations

import copy
import hashlib
import os
import random
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import CompilerOptions, run_program, train
from repro.driver.compiler import CompileSession
from repro.frontend import compile_source, detect_language
from repro.ir.callgraph import CallGraph
from repro.ir.program import ENTRY_NAME, Program
from repro.linker.objects import decode_executable, encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.serve.client import DaemonClient, DaemonError
from repro.synth import generate
from repro.synth.config import mcad_suite
from repro.vm.machine import run_image

now = time.perf_counter

#: Transactions the generated ``main`` dispatches.  The named configs
#: use 420; 40 keeps the interpreter reference and the VM check of
#: every edit-loop op well under a second without changing what the
#: compiler has to do (the loop bound is one constant in ``main``).
DISPATCH_COUNT = 40

#: The profile is trained on one fixed input, so every seed builds the
#: same image; the seed picks the held-out input and the edits.
TRAIN_INPUT_SEED = 1
HELD_OUT_OFFSET = 100_000


def app_config(name: str):
    """The named MCAD config.

    The program stays fixed; the benchmark seed drives the held-out
    input and the edit sequence.
    Re-seeding the generator instead made each seed a different program:
    code size moved by 25% and run time by two orders of magnitude
    between seeds, so no metric stayed within a bound.
    """
    base = {config.name: config for config in mcad_suite()}[name]
    config = copy.copy(base)
    config.dispatch_count = DISPATCH_COUNT
    return config


#: Held-out inputs per seed; ``vm_cycles_per_step`` sums over all of them.
HELD_OUT_INPUTS = 4


def held_out_inputs(app, seed: int) -> List[Dict[str, List[int]]]:
    """A stratified sample of the program's feature distribution.

    Across all held-out inputs each feature is dispatched as often as
    its weight says (largest remainder); the seed shuffles which
    transaction runs which feature.  With independent draws
    (``make_input``) a few dispatches of an expensive feature more or
    less moved ``vm_cycles_per_step`` of ``mcad2_like`` by up to 7%
    between seeds; stratified, the spread is a third of that.
    """
    slots = HELD_OUT_INPUTS * DISPATCH_COUNT
    weights = app.feature_weights
    total = sum(weights)
    shares = [slots * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda index: counts[index] - shares[index])
    for index in by_remainder[:slots - sum(counts)]:
        counts[index] += 1
    values = [feature for feature, count in enumerate(counts)
              for _ in range(count)]
    random.Random(HELD_OUT_OFFSET + seed).shuffle(values)
    size = app.config.input_size
    inputs = []
    for start in range(0, slots, DISPATCH_COUNT):
        chunk = values[start:start + DISPATCH_COUNT]
        # ``main`` reads the first DISPATCH_COUNT entries only.
        inputs.append({"input_data": (chunk * size)[:size]})
    return inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Reference:
    """Interpreter outputs for a source state on each held-out input,
    with per-module frontend results reused while a module's text is
    unchanged."""

    def __init__(self, inputs: List[Dict[str, List[int]]]) -> None:
        self.inputs = inputs
        self._modules: Dict[str, Tuple[str, object]] = {}

    def program(self, sources: Dict[str, str]) -> Program:
        modules = []
        for name, text in sources.items():
            cached = self._modules.get(name)
            if cached is None or cached[0] != text:
                cached = (text, compile_source(text, name,
                                               detect_language(text)))
                self._modules[name] = cached
            modules.append(cached[1])
        return Program(modules)

    def run(self, sources: Dict[str, str], count: Optional[int] = None):
        """Results on the first ``count`` inputs (default: all)."""
        program = self.program(sources)
        return [run_program(program, inputs=inputs)
                for inputs in self.inputs[:count]]


class Op:
    """One timed request and what its checks found."""

    def __init__(self) -> None:
        self.start = 0.0
        self.end = 0.0
        self.error: Optional[str] = None
        self.sha = ""
        #: Client-visible facts for the per-layer report.
        self.info: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> bool:
        return self.error is not None

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason


class VmFacts:
    """The generated code's quality on the held-out input."""

    def __init__(self, cycles: int, steps: int, instrs: int) -> None:
        self.cycles = cycles
        self.steps = steps
        self.code_instrs = instrs

    @property
    def cycles_per_step(self) -> float:
        return self.cycles / self.steps


def check_image(image: bytes, inputs, expected) -> Tuple[Optional[str],
                                                         VmFacts]:
    """Run ``image`` on the VM for each input paired with an expected
    interpreter result; returns (first failure or None, summed facts)."""
    executable = decode_executable(image)
    error = None
    cycles = steps = 0
    for one_input, reference in zip(inputs, expected):
        outcome = run_image(executable, one_input)
        cycles += outcome.cycles
        steps += reference.steps
        if outcome.value != reference.value and error is None:
            error = ("VM output %d != interpreter %d"
                     % (outcome.value, reference.value))
    return error, VmFacts(cycles, steps, executable.code_size())


# -- Edits --------------------------------------------------------------------------

_HEADER = re.compile(r"^(?:func|FUNCTION) (\w+)\(", re.M)
_CONSTANT = re.compile(r"\* (\d+) \+")


def constant_sites(source: str) -> List[Tuple[str, int, int]]:
    """(routine name, start, end) of each editable multiplier."""
    headers = list(_HEADER.finditer(source))
    sites = []
    for index, header in enumerate(headers):
        stop = (headers[index + 1].start() if index + 1 < len(headers)
                else len(source))
        for match in _CONSTANT.finditer(source, header.end(), stop):
            sites.append((header.group(1).lower(), match.start(1),
                          match.end(1)))
    return sites


def reachable_routines(program: Program) -> set:
    """Routines the static call graph reaches from the entry."""
    graph = CallGraph.build(program)
    seen = {ENTRY_NAME}
    stack = [ENTRY_NAME]
    while stack:
        node = graph.nodes.get(stack.pop())
        if node is None:
            continue
        for callee in node.callees():
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return {name.lower() for name in seen}


class EditSequence:
    """Seeded one-module edits, each starting from the previous state.

    Every edit raises one multiplier constant in one reachable routine,
    so the edited module's summary changes and at least one CMO module
    has to be optimized again.
    """

    def __init__(self, sources: Dict[str, str], reachable: set,
                 seed: int) -> None:
        self.sources = dict(sources)
        self.reachable = reachable
        self.rng = random.Random(seed)
        self.modules = sorted(
            name for name, text in sources.items()
            if any(site[0] in reachable for site in constant_sites(text))
        )
        if not self.modules:
            raise ValueError("no editable constant in a reachable routine")

    def next(self) -> Tuple[str, Dict[str, str]]:
        name = self.rng.choice(self.modules)
        text = self.sources[name]
        sites = [site for site in constant_sites(text)
                 if site[0] in self.reachable]
        _routine, start, end = self.rng.choice(sites)
        value = int(text[start:end]) + self.rng.randint(1, 9)
        sources = dict(self.sources)
        sources[name] = text[:start] + str(value) + text[end:]
        self.sources = sources
        return name, sources


# -- Workloads ----------------------------------------------------------------------


class ColdBuild:
    """A cold +O4 +P build per op: a fresh ``CompileSession`` each time,
    with the profile trained in set-up.  Every op must produce the
    image bytes of the run's first op."""

    app_name = ""
    jobs = 1
    in_process = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.first_sha: Optional[str] = None
        self.first_peak: Optional[int] = None
        self.vm: Optional[VmFacts] = None
        self._image_error: Dict[str, Optional[str]] = {}

    def config(self):
        return app_config(self.app_name)

    def options(self) -> CompilerOptions:
        return CompilerOptions(opt_level=4, pbo=True)

    def setup(self) -> None:
        self.app = generate(self.config())
        self.profile = train(self.app.sources,
                             [self.app.make_input(seed=TRAIN_INPUT_SEED)])
        self.inputs = held_out_inputs(self.app, self.seed)
        self.expected = Reference(self.inputs).run(self.app.sources)

    def start_phase(self, trace_dir: Optional[str]) -> None:
        """Cold builds run in this process: nothing to start."""

    def run_op(self, recorder=None) -> Op:
        op = Op()
        if recorder is not None:
            recorder.enabled = True
        op.start = now()
        try:
            session = CompileSession(self.options(), jobs=self.jobs)
            result, _report, _stats = session.build(
                self.app.sources, profile_db=self.profile
            )
            image = encode_executable(result.executable)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            op.end = now()
            op.fail("raised %s: %s" % (type(exc).__name__, exc))
            return op
        finally:
            if recorder is not None:
                recorder.enabled = False
        op.end = now()
        op.sha = sha256(image)
        peak = result.accountant.peak
        stats = result.ltrans_stats or {}
        op.info["part.spawn_s"] = stats.get("spawn_seconds", 0.0)
        op.info["part.blob_bytes"] = stats.get("blob_bytes", 0)
        op.info["part.partitions"] = stats.get("partitions", 0)
        op.info["part.requeues"] = stats.get("requeues", 0)
        if self.first_sha is None:
            self.first_sha, self.first_peak = op.sha, peak
        elif op.sha != self.first_sha:
            op.fail("image SHA-256 differs from the first op's")
        elif peak != self.first_peak:
            op.fail("NAIM peak drifted: %d != %d" % (peak, self.first_peak))
        if op.sha not in self._image_error:
            error, facts = check_image(image, self.inputs, self.expected)
            self._image_error[op.sha] = error
            if self.vm is None:
                self.vm = facts
        if self._image_error[op.sha] is not None:
            op.fail(self._image_error[op.sha])
        return op

    def finish_phase(self, ops: List[Op]) -> None:
        """Every check of a cold build happens per op."""

    def close(self) -> None:
        """Nothing outlives a cold build."""


class ColdO4Mcad1(ColdBuild):
    name = "cold_o4_mcad1"
    app_name = "mcad1_like"


class ParallelOffloadMcad3(ColdBuild):
    name = "parallel_offload_mcad3"
    app_name = "mcad3_like"
    jobs = 2

    def options(self) -> CompilerOptions:
        return CompilerOptions(
            opt_level=4, pbo=True, hlo_jobs=2, hlo_backend="processes",
            naim=NaimConfig(level=NaimLevel.OFFLOAD, cache_pools=4),
        )


class Daemon:
    """A build daemon child process with its own state root."""

    def __init__(self, root: str, trace_dir: Optional[str]) -> None:
        self.root = root
        self.trace_dir = trace_dir
        os.makedirs(root, exist_ok=True)
        socket_path = os.path.join(os.path.abspath(root), "daemon.sock")
        if len(socket_path) > 100:  # AF_UNIX path limit
            socket_path = os.path.relpath(socket_path)
        self.socket_path = socket_path
        self.client = DaemonClient(socket_path)
        self.process: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        args = ["--root", self.root, "--socket", self.socket_path]
        if self.trace_dir is None:
            command = [sys.executable, "-m", "repro.serve", "run"] + args
        else:
            launcher = os.path.join(os.path.dirname(__file__),
                                    "traced_daemon.py")
            command = ([sys.executable, launcher,
                        "--trace-dir", self.trace_dir] + args)
        with open(os.path.join(self.root, "daemon.log"), "ab") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=log, stdin=subprocess.DEVNULL,
            )
        deadline = now() + timeout
        while now() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited during start-up (code %d)"
                                   % self.process.returncode)
            if self.client.available():
                return
            time.sleep(0.05)
        raise RuntimeError("daemon did not answer within %.0fs" % timeout)

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            self.client.shutdown()
        except DaemonError:
            process.terminate()
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class EditLoopMcad2:
    """Seeded one-module edits rebuilt by a warm incremental daemon.

    The daemon's first full build gives the run's VM, code-size and
    NAIM figures: they do not depend on which edits a seed makes.  The
    final image of each phase must be byte-identical to a cold
    in-process build of the final sources.
    """

    name = "edit_loop_mcad2"
    in_process = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.daemon: Optional[Daemon] = None
        self.vm: Optional[VmFacts] = None
        self.first_sha: Optional[str] = None
        self.first_peak: Optional[int] = None
        self._phases = 0

    def config(self):
        return app_config("mcad2_like")

    def setup(self) -> None:
        self.app = generate(self.config())
        profile = train(self.app.sources,
                        [self.app.make_input(seed=TRAIN_INPUT_SEED)])
        os.makedirs(self.workdir, exist_ok=True)
        self.profile_path = os.path.abspath(
            os.path.join(self.workdir, "profile.json"))
        profile.save(self.profile_path)
        self.profile = profile
        self.inputs = held_out_inputs(self.app, self.seed)
        self.reference = Reference(self.inputs)
        self.expected = self.reference.run(self.app.sources)
        self.reachable = reachable_routines(
            self.reference.program(self.app.sources))
        self.start_phase(None)

    def _request(self, sources: Dict[str, str]) -> Dict:
        return {"sources": sources, "opt_level": 4, "jobs": 1,
                "incremental": True, "profile_path": self.profile_path}

    def start_phase(self, trace_dir: Optional[str]) -> None:
        """A fresh daemon, its first full build, and a fresh edit
        sequence from the generated sources."""
        if self.daemon is not None:
            self.daemon.stop()
        self._phases += 1
        self.daemon = Daemon(
            os.path.join(self.workdir, "daemon%d" % self._phases), trace_dir)
        self.daemon.start()
        self.full_build = self.daemon.client.build(
            self._request(self.app.sources))
        self.edits = EditSequence(self.app.sources, self.reachable,
                                  self.seed)
        self.last_image: Optional[bytes] = None

    def _check_full_build(self, op: Op) -> None:
        """The phase's first full build, checked on every held-out input
        and, after the first phase, against the first phase's build."""
        reply, self.full_build = self.full_build, None
        image, peak = reply["image"], reply["stats"]["peak_bytes"]
        error, facts = check_image(image, self.inputs, self.expected)
        if error is not None:
            op.fail("first full build: %s" % error)
        if self.first_sha is None:
            self.first_sha, self.first_peak, self.vm = (
                sha256(image), peak, facts)
        elif sha256(image) != self.first_sha:
            op.fail("first full build differs between daemons")
        elif peak != self.first_peak:
            op.fail("NAIM peak of the first full build drifted")

    def run_op(self, recorder=None) -> Op:
        op = Op()
        if self.full_build is not None:
            self._check_full_build(op)
        _module, sources = self.edits.next()
        op.start = now()
        try:
            reply = self.daemon.client.build(self._request(sources))
        except DaemonError as exc:
            op.end = now()
            op.fail("daemon error: %s" % exc)
            return op
        op.end = now()
        image = reply["image"]
        self.last_image = image
        op.sha = sha256(image)
        summary, stats = reply["summary"], reply["stats"]
        op.info["server_seconds"] = stats["seconds"]
        reused = summary.get("cmo_reused", 0)
        reoptimized = summary.get("cmo_reoptimized", 0)
        op.info["incr.reoptimized_modules"] = reoptimized
        op.info["incr.reuse_ratio"] = (
            reused / (reused + reoptimized) if reused + reoptimized else 0.0)
        error, _facts = check_image(image, self.inputs,
                                    self.reference.run(sources, 1))
        if error is not None:
            op.fail(error)
        return op

    def finish_phase(self, ops: List[Op]) -> None:
        """The last image must match a cold build of the final sources."""
        if not ops or ops[-1].failed or self.last_image is None:
            return
        session = CompileSession(CompilerOptions(opt_level=4, pbo=True))
        result, _report, _stats = session.build(self.edits.sources,
                                                profile_db=self.profile)
        if encode_executable(result.executable) != self.last_image:
            ops[-1].fail("final image differs from a cold build "
                         "of the final sources")

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {
    workload.name: workload
    for workload in (ColdO4Mcad1, EditLoopMcad2, ParallelOffloadMcad3)
}
