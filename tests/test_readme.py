"""README's examples run as written: the library example and cap.yaml's spectrum summary."""

import re
from pathlib import Path

from curvband import normal_energy, parse_config
from curvband.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(pattern):
    """The body of the README code block that pattern (a regex with one group) captures."""
    found = re.search(pattern, README.read_text(encoding="utf-8"), re.S)
    assert found, f"README has no block matching {pattern!r}"
    return found.group(1)


def test_library_example_runs():
    namespace = {}
    exec(readme_block(r"## Library example\n\n```python\n(.*?)```"), namespace)
    assert namespace["spec"].eigenvalues.shape == (6,)
    assert namespace["div"].shape == namespace["grid"].nodes.shape
    assert isinstance(namespace["div0"], float)


def test_cap_spectrum_summary_adds_the_normal_ladder(tmp_path):
    text = readme_block(r"```yaml\n(# cap\.yaml.*?)```")
    (tmp_path / "cap.yaml").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(tmp_path / "cap.yaml"), "--output", str(out)]) == 0
    summary = (out / "run_summary.txt").read_text(encoding="utf-8")
    config = parse_config(text)
    normal = re.search(r"^normal channel: omega=(\S+) n=(\d+) E_q=(\S+)$", summary, re.M)
    assert (float(normal[1]), int(normal[2])) == (config.omega, config.n_normal)
    E_q = float(normal[3])
    assert E_q == normal_energy(config.omega, config.n_normal)
    ground = re.search(r"^ground total \(m=0\): re=(\S+) im=(\S+) tangential re=(\S+)$",
                       summary, re.M)
    assert float(ground[1]) == float(ground[3]) + E_q
    first = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert (first[2], first[3]) == (ground[3], ground[2])
