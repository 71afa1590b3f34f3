"""Benchmark harness: config files, reports, runs, scheduling, containment."""

import json
import os
import random
import struct
import subprocess
import sys
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from devmux import simdev
from devmux.bench import workloads
from devmux.bench.attacks import CASES, run_attacks
from devmux.bench.cli import main
from devmux.bench.config import DRIVERS, BenchConfig, WorkloadSpec
from devmux.bench.report import ITERATION_COLUMNS, RunReport
from devmux.bench.schedule import measure_switch, run_schedule
from devmux.bench.workloads import (FB_WORDS, framebuffer_oracle, make_program,
                                    matmul_oracle, run_workload, speedup,
                                    vertex_fill, vertex_frame)
from devmux.bench.world import World, build_world
from devmux.errors import InvalError, VerifyFail
from devmux.libdrv import LibraryDriver
from devmux.pool import GTT, VRAM
from devmux.simdev import CO_ADD, MASK32, WORD, Compute, Copy, SimDevice


def test_config_file_parsing(tmp_path):
    path = tmp_path / "bench.conf"
    path.write_text(
        "# comment line\n"
        "\n"
        "crossing_cost = 500.0   # trailing comment\n"
        "vram_bytes = 0x400000\n"
        "pool_pages=32\n")
    config = BenchConfig.from_file(str(path))
    assert config.crossing_cost == 500.0
    assert config.vram_bytes == 4 << 20
    assert config.pool_pages == 32
    assert config.byte_cost == 0.25  # untouched default

    path.write_text("no_such_key = 1\n")
    with pytest.raises(InvalError):
        BenchConfig.from_file(str(path))
    path.write_text("just some words\n")
    with pytest.raises(InvalError):
        BenchConfig.from_file(str(path))


def test_workload_spec_validation():
    spec = WorkloadSpec(kind="matmul", size=4, iters=2)
    assert spec.as_dict()["kind"] == "matmul"
    with pytest.raises(InvalError):
        WorkloadSpec(kind="raytrace")
    with pytest.raises(InvalError):
        WorkloadSpec(driver="microkernel")
    with pytest.raises(InvalError):
        WorkloadSpec(iommu="none")
    with pytest.raises(InvalError):
        WorkloadSpec(size=0)
    with pytest.raises(InvalError):
        WorkloadSpec(iters=0)


def test_report_serialization():
    rows = [dict.fromkeys(ITERATION_COLUMNS, n) for n in (9, 2, 2, 2)]
    report = RunReport(spec={"kind": "matmul"}, per_iteration=rows,
                       ledger={"crossings": 15}, digests={"result": "aa"})
    assert report.first_iteration_time == 9
    assert report.steady_mean == 2.0
    data = json.loads(report.to_json())
    assert data["digests"] == {"result": "aa"}
    assert data["steady_mean"] == 2.0
    lines = report.to_csv().splitlines()
    assert "# spec.kind,matmul" in lines
    assert "# digest.result,aa" in lines
    assert lines.index("iteration," + ",".join(ITERATION_COLUMNS)) >= 3
    assert lines[-1].startswith("4,2,")
    assert report.render("csv") == report.to_csv()
    assert report.render() == report.to_json()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATM = "/proc/self/statm"

# builds one default world per driver, 2 x (16 MiB VRAM + 16 MiB system
# memory), hashes each device's state (every VRAM byte) and prints how many
# bytes that made resident
_WORLD_RSS = textwrap.dedent("""\
    import hashlib, os  # hashlib loads OpenSSL: before the baseline
    from devmux.bench.config import BenchConfig
    from devmux.bench.world import World

    def resident():
        with open(%r) as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    before = resident()
    worlds = [World(BenchConfig(), d, "builtin") for d in ("library", "legacy")]
    for world in worlds:
        world.device.device_digest()
    print(resident() - before)
""" % STATM)


@pytest.mark.skipif(not os.path.exists(STATM), reason=f"no {STATM}")
def test_default_worlds_make_only_the_memory_they_write_resident():
    """Device and system memory are zero until written and resident only
    where written: reading an untouched page takes none either.  Memory
    zero-filled up front made all 64 MiB resident."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _WORLD_RSS], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 8 << 20


def test_a_world_without_device_memory_hosts_a_library_on_the_lean_core():
    world = build_world(BenchConfig(vram_bytes=0), "library", "builtin")
    assert len(world.core.api_surface()) == 7
    lib = LibraryDriver(world.core, "app", pool_pages=16)
    world.core.bind_device_lib(lib.lib_id)
    src, dst = lib.create_buffer(64, GTT), lib.create_buffer(64, GTT)
    lib.write_buffer(src, 0, bytes(range(64)))
    s, d = (lib.buffers[h].device_addr for h in (src, dst))
    lib.wait_fence(lib.submit([Copy(d, s, 16)]))
    assert lib.read_buffer(dst, 0, 64) == bytes(range(64))


# lanes whose sum carries into bit 31 or out of it, in both orders: a wrong
# top bit in any 32-bit lane of an ADD shows in its own word
CARRY_LANES = [(0xFFFFFFFF, 1), (0x80000000, 0x80000000), (0x7FFFFFFF, 1),
               (1, 0xFFFFFFFF), (1, 0x7FFFFFFF)] * 4


def _add_on_library(placement, xs, ys):
    world = build_world(BenchConfig(), "library", "builtin")
    lib = LibraryDriver(world.core, "adder", pool_pages=16)
    world.core.bind_device_lib(lib.lib_id)
    x, y, z = (lib.create_buffer(len(xs) * WORD, placement) for _ in range(3))
    lib.write_buffer(x, 0, struct.pack(f"<{len(xs)}I", *xs))
    lib.write_buffer(y, 0, struct.pack(f"<{len(ys)}I", *ys))
    x, y, z_addr = (lib.buffers[h].device_addr for h in (x, y, z))
    lib.wait_fence(lib.submit([Compute(CO_ADD, z_addr, x, y, len(xs))]))
    return lib.read_buffer(z, 0, len(xs) * WORD)


def _add_on_legacy(placement, xs, ys):
    drv = build_world(BenchConfig(), "legacy", "builtin").legacy
    client = drv.legacy_open("adder")
    x, y, z = (drv.legacy_alloc(client, len(xs) * WORD, placement) for _ in range(3))
    drv.legacy_write(client, x, 0, struct.pack(f"<{len(xs)}I", *xs))
    drv.legacy_write(client, y, 0, struct.pack(f"<{len(ys)}I", *ys))
    drv.legacy_wait(client, drv.legacy_submit(
        client, [Compute(CO_ADD, (z, 0), (x, 0), (y, 0), len(xs))]))
    return drv.legacy_read(client, z, 0, len(xs) * WORD)


@pytest.mark.parametrize("placement", [VRAM, GTT])
@pytest.mark.parametrize("add", [_add_on_library, _add_on_legacy],
                         ids=["library", "legacy"])
def test_an_add_of_two_buffers_carries_inside_each_lane_on_both_stacks(add, placement):
    """The workloads add a buffer to itself; here two distinct buffers are
    added through each stack's submit path and read back."""
    xs = [x for x, _ in CARRY_LANES]
    ys = [y for _, y in CARRY_LANES]
    got = struct.unpack(f"<{len(xs)}I", add(placement, xs, ys))
    assert list(got) == [(x + y) & MASK32 for x, y in CARRY_LANES]


def test_results_agree_across_every_deployment():
    config = BenchConfig()
    for kind in ("matmul", "vertex-array", "display-list"):
        digests = set()
        for driver in ("library", "legacy"):
            rows = []
            for iommu in ("builtin", "system"):
                spec = WorkloadSpec(kind=kind, size=4, iters=2,
                                    driver=driver, iommu=iommu)
                report = run_workload(spec, config)
                digests.add(report.digests["result"])
                assert len(report.per_iteration) == 2
                assert set(report.per_iteration[0]) == set(ITERATION_COLUMNS)
                assert report.ledger["crossings"] > 0
                rows.append(report.per_iteration)
            # where translation happens changes no cost
            assert rows[0] == rows[1], (kind, driver)
        assert len(digests) == 1, kind


@pytest.mark.parametrize("n", [4, 26, 27, 32])
def test_steady_matmul_rows_follow_the_host_cost_formula(n):
    # n*n DOTs of n terms: 1 + n cycles each, plus 4 cycles per fence.  A
    # ring of 4096 words holds 681 six-word COMPUTEs and the 4-word fence,
    # so an iteration is k = ceil(n*n / 681) fenced batches on either stack.
    k = -(-n * n // ((4096 - 1 - 4) // 6))
    cycles = n * n * (n + 1) + 4 * k
    rows = {}
    for driver in ("library", "legacy"):
        spec = WorkloadSpec(kind="matmul", size=n, iters=3, driver=driver)
        rows[driver] = run_workload(spec, BenchConfig()).per_iteration[1:]
    for row in rows["library"]:
        assert (row["crossings"], row["core_calls"]) == (k, k)  # tail writes
        assert row["device_cycles"] == cycles
        assert row["bytes_copied"] == row["instructions_validated"] == 0
    for row in rows["legacy"]:
        assert row["device_cycles"] == cycles
        assert row["instructions_validated"] == 6 * n * n
        assert row["bytes_copied"] == 24 * n * n


@pytest.mark.parametrize("n_words, salt", [
    (0, 0), (1, 0), (64, 1), (3072, 17), (3072, (1 << 32) - 1), (5, (1 << 32) + 3)])
def test_vertex_fill_is_the_per_index_formula(n_words, salt):
    assert vertex_fill(n_words, salt) == [(j * 2654435761 + salt * 97) & MASK32
                                          for j in range(n_words)]


def _packed(words) -> bytes:
    return struct.pack(f"<{len(words)}I", *words)


@pytest.mark.parametrize("n_words, salt", [
    (0, 0), (1, 0), (64, 1), (3072, 17), (3072, (1 << 32) - 1), (5, (1 << 32) + 3)])
def test_vertex_frame_is_the_packed_fill(n_words, salt):
    assert vertex_frame(n_words, salt) == _packed(vertex_fill(n_words, salt))


@settings(max_examples=200, deadline=None)
@given(n_words=st.integers(0, 4096), salt=st.integers(0, (1 << 64) - 1))
def test_vertex_frame_is_the_packed_fill_for_any_size_and_salt(n_words, salt):
    assert vertex_frame(n_words, salt) == _packed(vertex_fill(n_words, salt))


def _matmul_by_loops(n, a, b):
    out = [0] * (n * n)
    for r in range(n):
        for c in range(n):
            acc = 0
            for k in range(n):
                acc += a[r * n + k] * b[k * n + c]
            out[r * n + c] = acc & MASK32
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 32])
def test_matmul_oracle_equals_the_triple_loop(n):
    rng = random.Random(n)
    a = [rng.getrandbits(32) for _ in range(n * n)]
    b = [rng.getrandbits(32) for _ in range(n * n)]
    assert matmul_oracle(n, a, b) == _matmul_by_loops(n, a, b)


@pytest.mark.parametrize("n_words", [0, 1, 3, 64, 3072, FB_WORDS])
def test_framebuffer_oracle_doubles_each_word_and_pads_the_frame(n_words):
    rng = random.Random(n_words)
    # every word with its top bit set would carry into its neighbour if
    # the shift were not masked
    words = [rng.getrandbits(32) | (1 << 31) * (j % 2) for j in range(n_words)]
    want = [(2 * v) & MASK32 for v in words] + [0] * (FB_WORDS - n_words)
    assert framebuffer_oracle(_packed(words)) == _packed(want)


def _after_one_iteration(spec):
    world = build_world(BenchConfig(), spec.driver, spec.iommu)
    program = make_program(world, spec)
    program.prepare()
    if program.needs_bind:
        world.core.bind_device_lib(program.lib_id)
    program.start()
    program.iterate()
    return program


def _forget_expected_values():
    workloads._expected_product.cache_clear()
    workloads._expected_frame.cache_clear()


def _flip_word_5(program, buffer: str) -> bytes:
    """Flip a bit of word 5 of a result buffer through the stack's own write
    path (the vertex-array pass writes there too); returns the right bytes."""
    buf, at = getattr(program, buffer), 5 * WORD
    right = program.stack.read(buf, at, WORD)
    program.stack.write(buf, at, bytes([right[0] ^ 1]) + right[1:])
    return right


RESULTS = [("matmul", 4, "c_buf", "matmul_oracle"),
           ("vertex-array", 1, "fb", "framebuffer_oracle")]


# A cold program verifies with no expected value built; a warm one has
# verified once before, so its expected value is built.
@pytest.mark.parametrize("verified_first", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("kind,size,buffer", [r[:3] for r in RESULTS])
def test_verify_fails_while_a_result_word_is_wrong(kind, size, buffer, driver,
                                                   verified_first):
    spec = WorkloadSpec(kind=kind, size=size, iters=1, driver=driver)
    want = run_workload(spec, BenchConfig()).digests
    program = _after_one_iteration(spec)
    if verified_first:
        assert program.finalize() == want
    else:
        _forget_expected_values()
    right = _flip_word_5(program, buffer)
    for _ in range(2):  # a failed verify leaves the expected value as it was
        with pytest.raises(VerifyFail):
            program.finalize()
    program.stack.write(getattr(program, buffer), 5 * WORD, right)
    assert program.finalize() == want


def _counting(monkeypatch, module, name: str) -> Counter:
    calls = Counter()
    original = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind,size,buffer,oracle", RESULTS)
def test_both_stacks_share_one_expected_value_and_one_hash(monkeypatch, kind,
                                                           size, buffer, oracle):
    _forget_expected_values()
    built = _counting(monkeypatch, workloads, oracle)
    hashed = _counting(monkeypatch, workloads, "fnv1a64")
    programs = [_after_one_iteration(WorkloadSpec(kind=kind, size=size, iters=1,
                                                  driver=driver))
                for driver in DRIVERS]
    digests = [program.finalize() for program in programs]
    assert digests[0] == digests[1]
    assert built[oracle] == 1 and hashed["fnv1a64"] == 1
    for program in programs:  # warm verifies build and hash nothing more
        assert program.finalize() == digests[0]
    assert built[oracle] == 1 and hashed["fnv1a64"] == 1


def test_scanout_hashes_nothing_and_each_salt_is_hashed_once(monkeypatch):
    program = _after_one_iteration(WorkloadSpec(kind="vertex-array", size=1,
                                                iters=2, driver="library"))
    device_hashes = _counting(monkeypatch, simdev, "fnv1a64")
    shot = program.world.device.scanout()
    assert device_hashes["fnv1a64"] == 0
    _forget_expected_values()
    hashed = _counting(monkeypatch, workloads, "fnv1a64")
    at_salt_1 = program.finalize()
    program.iterate()
    at_salt_2 = program.finalize()
    assert program.finalize() == at_salt_2 != at_salt_1
    assert hashed["fnv1a64"] == 2
    # the digest is still the frame's own
    assert at_salt_1 == {"result": f"{shot.digest:016x}"}


@pytest.mark.parametrize("kind,size,buffer", [r[:3] for r in RESULTS])
def test_a_shared_expected_value_cannot_hide_a_wrong_result(kind, size, buffer):
    specs = {driver: WorkloadSpec(kind=kind, size=size, iters=1, driver=driver)
             for driver in DRIVERS}
    want = run_workload(specs["library"], BenchConfig()).digests
    assert run_workload(specs["legacy"], BenchConfig()).digests == want
    programs = {driver: _after_one_iteration(spec) for driver, spec in specs.items()}
    assert programs["library"].finalize() == want  # the expected value is built
    right = _flip_word_5(programs["legacy"], buffer)
    with pytest.raises(VerifyFail):
        programs["legacy"].finalize()
    assert programs["library"].finalize() == want
    programs["legacy"].stack.write(getattr(programs["legacy"], buffer), 5 * WORD,
                                   right)
    for program in programs.values():
        assert program.finalize() == want


def test_library_hot_loop_is_one_crossing_and_no_copies():
    spec = WorkloadSpec(kind="vertex-array", size=8, iters=5, driver="library")
    report = run_workload(spec, BenchConfig())
    for row in report.per_iteration[1:]:
        assert row["crossings"] == 1
        assert row["bytes_copied"] == 0


def test_legacy_hot_loop_copies_the_stream_every_frame():
    spec = WorkloadSpec(kind="vertex-array", size=8, iters=5, driver="legacy")
    report = run_workload(spec, BenchConfig())
    steady = {(row["bytes_copied"], row["instructions_validated"])
              for row in report.per_iteration[1:]}
    assert len(steady) == 1
    bytes_copied, validated = steady.pop()
    assert bytes_copied == 2816  # 4*(64*8) vertex bytes + 192 patched words
    assert validated == 192


def test_speedup_is_greater_than_one():
    assert speedup("matmul", 4, iters=3, config=BenchConfig()) > 1.0


def test_schedule_interleaving_matches_solo_runs():
    config = BenchConfig()
    specs = [WorkloadSpec(kind="matmul", size=4, iters=3)] * 2
    for report in run_schedule(specs, 500, config):
        assert report.digests["result"] == report.digests["solo"]


def test_schedule_with_tiny_epochs_still_completes():
    config = BenchConfig()
    specs = [WorkloadSpec(kind="matmul", size=2, iters=2)] * 2
    reports = run_schedule(specs, 10, config)
    assert all(r.digests["result"] == r.digests["solo"] for r in reports)


def test_single_member_schedule_equals_a_plain_run():
    config = BenchConfig()
    spec = WorkloadSpec(kind="matmul", size=4, iters=3)
    scheduled = run_schedule([spec], 1000, config)[0]
    assert scheduled.digests["result"] == run_workload(spec, config).digests["result"]


def test_schedule_rejects_degenerate_inputs():
    config = BenchConfig()
    with pytest.raises(InvalError):
        run_schedule([], 100, config)
    with pytest.raises(InvalError):
        run_schedule([WorkloadSpec(driver="legacy")], 100, config)
    with pytest.raises(InvalError):
        run_schedule([WorkloadSpec()], 0, config)
    # every spec runs on one device, so on one translation unit: mixed
    # iommus would all run on the first spec's
    with pytest.raises(InvalError, match="iommu"):
        run_schedule([WorkloadSpec(iommu="builtin"), WorkloadSpec(iommu="system")],
                     100, config)


@pytest.fixture
def stepped(monkeypatch):
    """(cycles each device's ``step`` ran, every world built) for one test."""
    cycles, worlds = Counter(), []
    step, init = SimDevice.step, World.__init__

    def counted_step(device, budget):
        report = step(device, budget)
        cycles[device] += report.cycles_used
        return report

    def recorded_init(world, *args, **kwargs):
        init(world, *args, **kwargs)
        worlds.append(world)

    monkeypatch.setattr(SimDevice, "step", counted_step)
    monkeypatch.setattr(World, "__init__", recorded_init)
    return cycles, worlds


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("kind,size", [("matmul", 32), ("vertex-array", 8)])
def test_every_device_step_is_billed(stepped, kind, size, driver):
    cycles, worlds = stepped
    report = run_workload(WorkloadSpec(kind=kind, size=size, iters=2,
                                       driver=driver))
    (world,) = worlds
    assert cycles[world.device] == report.ledger["device_cycles"] > 0


def test_every_device_step_of_a_schedule_is_billed(stepped):
    cycles, worlds = stepped
    specs = [WorkloadSpec(kind="matmul", size=4, iters=3)] * 2
    scheduled = run_schedule(specs, 100, BenchConfig())
    assert len(worlds) == 3  # the schedule's own, then one solo run per spec
    assert cycles[worlds[0].device] == scheduled[-1].ledger["device_cycles"] > 0
    for world in worlds:
        assert cycles[world.device] == world.ledger.device_cycles


@pytest.mark.parametrize("cycles", [0, -1])
def test_switch_time_refuses_fewer_than_one_cycle(cycles):
    with pytest.raises(InvalError, match="at least 1"):
        measure_switch(BenchConfig(), cycles=cycles)


def test_switch_time_passes_a_zero_pool_to_the_driver():
    with pytest.raises(InvalError, match="pool needs at least"):
        measure_switch(BenchConfig(), pool_pages=0, cycles=1)


@pytest.mark.parametrize("argv", [["--cycles", "0"], ["--cycles", "-1"],
                                  ["--pool-pages", "0"]])
def test_cli_switch_time_reports_bad_arguments_as_errors(argv, capsys):
    assert main(["switch-time", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_switch_time_is_constant():
    report = measure_switch(BenchConfig(), pool_pages=64, cycles=20)
    assert report.stdev == 0.0
    assert report.mean > 0
    assert report.snapshots == report.restores == 20
    assert len(report.samples) == 20
    assert report.to_dict()["pool_pages"] == 64


@pytest.mark.parametrize("case", sorted(CASES))
def test_attack_is_contained(case):
    outcomes = run_attacks(case=case)
    assert len(outcomes) == 1
    assert outcomes[0].passed, outcomes[0].detail
    assert "contained" in outcomes[0].line()


def test_cli_run_emits_json(capsys):
    assert main(["run", "--size", "2", "--iters", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spec"]["kind"] == "matmul"
    assert len(data["per_iteration"]) == 2


def test_cli_run_emits_csv(capsys):
    assert main(["run", "--size", "2", "--iters", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "iteration," + ",".join(ITERATION_COLUMNS) in out


def test_cli_schedule(capsys):
    assert main(["schedule", "--libs", "2", "--size", "2", "--iters", "2",
                 "--epoch", "500"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2
    assert all(d["digests"]["result"] == d["digests"]["solo"] for d in data)


def test_cli_switch_time(capsys):
    assert main(["switch-time", "--cycles", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["stdev"] == 0.0


def test_cli_attack_all_cases(capsys):
    assert main(["attack"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(CASES)
    assert all("contained" in line for line in lines)


def test_cli_accepts_a_config_file(tmp_path, capsys):
    path = tmp_path / "fast.conf"
    path.write_text("crossing_cost = 2000.0\n")
    assert main(["run", "--size", "2", "--iters", "2",
                 "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    # a dearer crossing shows up in the simulated time of every iteration
    assert data["per_iteration"][1]["simulated_time"] > 2000.0


def test_cli_reports_missing_device_memory_as_an_error(tmp_path, capsys):
    path = tmp_path / "integrated.conf"
    path.write_text("vram_bytes = 0\n")
    assert main(["run", "--workload", "matmul", "--size", "2", "--iters", "1",
                 "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: device has no dedicated memory\n"
    assert captured.out == ""


def test_cli_rejects_unknown_choices():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "raytrace"])
    with pytest.raises(SystemExit):
        main(["nonsense"])


@pytest.mark.parametrize("body, line", [
    (None, None),                          # no such file
    (b"pool_pages = 32\ncrossing_cost = \xff1\n", 2),
    (b"vram_bytes = -1\n", 1),
    (b"# sized by hand\nsysmem_pages = -1\n", 2),
    (b"segment_bytes = 0\n", None),        # refused by DeviceCore
    (b"crossing_cost = nan\n", 1),
    (b"byte_cost = inf\n", 1),
    (b"cycle_cost = -0.5\n", 1),
    # more than any address space holds: refused at once, nothing allocated
    (b"vram_bytes = 0x1000000000000000\n", None),
    (b"sysmem_pages = 0x1000000000000\n", None),
], ids=["missing", "not-utf8", "negative-vram", "negative-sysmem",
        "zero-segment", "nan-cost", "inf-cost", "negative-cost",
        "huge-vram", "huge-sysmem"])
def test_cli_reports_a_bad_config_as_an_error(tmp_path, capsys, body, line):
    path = tmp_path / "bad.conf"
    if body is not None:
        path.write_bytes(body)
    assert main(["run", "--size", "2", "--iters", "1",
                 "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if line is not None:
        assert f"{path}:{line}: " in captured.err
