"""The benchmark's tracer rebinds library names in place, so every name
it wraps must still exist where the library looks it up; otherwise a
refactor breaks only the traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from dispdiff.dispersive import build_dispersive
from dispdiff.f2linear import serialize_generator_matrix, tabulate
from tablebytes import table_bytes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_binding_exists():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for owner, attr, _ in wrapped:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_every_wrapped_layer_is_called(tmp_path, capsys):
    # a call that bypasses a wrapped binding drops its layer from the trace
    tracing = _load_tracing()
    g5, f5_table, f5_matrix = (tmp_path / n for n in ("g5.tt", "f5.tt", "f5.gm"))
    f5_table.write_bytes(table_bytes(tabulate(build_dispersive(5))))
    f5_matrix.write_bytes(serialize_generator_matrix(build_dispersive(5)))
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.main(["construct", "diffusive", "--n", "5", "--out", str(g5)])
        tracer.main(["verify", "diffusive", str(g5), "--k", "2"])
        tracer.main(["verify", "dispersive", str(f5_table), "--k", "2"])
        tracer.main(["verify", "dispersive", str(f5_matrix), "--k", "2"])
        tracer.main(["explore", "--n", "2", "--k", "2", "--m-max", "4"])
    capsys.readouterr()
    called = {s.name for s in tracer.spans} - {"cli"}
    # layers the library no longer calls: verify decides a matrix without
    # its table, and the search ranks nothing
    unused = {"f2linear.tabulate", "f2linear.rank"}
    assert called == {layer for _, _, layer in tracing.WRAPPED} - unused


def test_each_command_calls_its_own_layers(tmp_path, capsys):
    # grouped per command, so a bypass at one of a layer's call sites
    # shows even while another command keeps the layer in the trace
    tracing = _load_tracing()
    g5, f5_table, f5_matrix = (tmp_path / n for n in ("g5.tt", "f5.tt", "f5.gm"))
    f5_table.write_bytes(table_bytes(tabulate(build_dispersive(5))))
    f5_matrix.write_bytes(serialize_generator_matrix(build_dispersive(5)))
    verify = {"cli", "f2linear.parse_map_file", "explorer.verify_k"}
    expected = [
        (
            ["construct", "diffusive", "--n", "5", "--out", str(g5)],
            {"cli", "diffusive.g_table", "f2linear.serialize_truth_table"},
        ),
        (
            ["verify", "diffusive", str(g5), "--k", "2"],
            verify | {
                "diffusive.verify", "diffusive.format_report",
                "f2linear.is_injective", "_scan.table_values", "_scan.bit_sums",
            },
        ),
        (
            ["verify", "dispersive", str(f5_table), "--k", "2"],
            verify | {
                "dispersive.verify", "dispersive.format_report",
                "f2linear.is_injective", "_scan.table_values",
                "_scan.first_distance_violation",
            },
        ),
        (
            ["verify", "dispersive", str(f5_matrix), "--k", "2"],
            verify | {"dispersive.verify", "dispersive.format_report"},
        ),
        (
            ["explore", "--n", "2", "--k", "2", "--m-max", "4"],
            {"cli", "explorer.search"},
        ),
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv, _ in expected:
            tracer.main(argv)
    capsys.readouterr()
    called: dict[int, set[str]] = {}
    for span in tracer.spans:
        called.setdefault(span.run, set()).add(span.name)
    assert [called.get(run + 1) for run in range(len(expected))] == [
        layers for _, layers in expected
    ]
