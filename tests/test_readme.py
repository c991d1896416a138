import csv
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np

import fewstep
from fewstep.cli import main
from fewstep.config import ExperimentConfig
from fewstep.mixture import MIXTURE_PRESETS, mixture_from_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def test_python_example_runs(capsys):
    (code,) = fenced("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    final = namespace["result"].final
    assert final.shape == (512, 1) and np.all(np.isfinite(final))
    assert capsys.readouterr().out.strip()


def test_config_and_mixture_examples_load():
    config, mixture = (json.loads(block) for block in fenced("json"))
    assert ExperimentConfig.from_mapping(config).mixture == "skewed-2d"
    assert mixture_from_config(mixture).num_components == 2


def test_mixture_file_example_is_the_bimodal_preset():
    _, mixture = (json.loads(block) for block in fenced("json"))
    assert mixture == MIXTURE_PRESETS["bimodal-1d"]


def test_overview_names_are_exported_by_their_module():
    rows = re.findall(r"^\| `(fewstep\.\w+)` \| (.*) \|$", README, flags=re.MULTILINE)
    assert rows
    for module, contents in rows:
        exported = importlib.import_module(module).__all__
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            assert name in exported, f"{module} does not export {name}"


def test_root_exports_the_example_names_and_the_experiment_entry_points():
    (code,) = fenced("python")
    (imported,) = re.findall(r"^from fewstep import \((.*?)\)", code, flags=re.DOTALL | re.MULTILINE)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert sorted(fewstep.__all__) == sorted(names | {"ExperimentConfig", "run_experiment"})


def test_criterion_6_grid_matches_its_table():
    (command,) = [block for block in fenced("sh") if "--sweep theta=1,0.7" in block]
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:2] == ["fewstep", "compare"]
    out = io.StringIO()
    assert main(argv[1:], stdout=out) == 0
    got = {row["label"]: f"{float(row['wasserstein1']):.3f}" for row in csv.DictReader(io.StringIO(out.getvalue()))}
    table = re.findall(r"^\| ([\d.]+) \| (\w+) \| ([\d.]+) \| ([\d.]+) \|$", README, flags=re.MULTILINE)
    assert len(table) == 4
    want = {}
    for theta, variant, *distances in table:
        for clip, distance in zip(("none", "tanh-balance"), distances):
            want[f"theta={theta},variant={variant},clip_method={clip}"] = distance
    assert got == want
