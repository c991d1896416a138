import json
import re
from pathlib import Path

import numpy as np

from fewstep import ExperimentConfig, mixture_from_config

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
