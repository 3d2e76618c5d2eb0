"""Reports on the bundled corpus, byte for byte as committed in
`tests/golden/`.

Speed-ups must leave these reports unchanged.  A change that alters one on
purpose (a defect fix) regenerates its file with the CLI and says so.
"""

from __future__ import annotations

from pathlib import Path

from gitloci.cli import run

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"

CASES = {
    "chambers_ex1_7.json": ["chambers", "--input", "ex1_7.json"],
    "chambers_external_toy.json": ["chambers", "--input", "external_toy.json"],
    "chambers_sec7_1.json": ["chambers", "--input", "sec7_1.json"],
    "fan_external_toy.json": ["fan", "--input", "external_toy.json"],
    "fan_sec7_1.json": ["fan", "--input", "sec7_1.json"],
    "fan_sec7_1_b0.json": ["fan", "--input", "sec7_1.json", "--variant", "b0"],
    "stability_ex1_7_m1_2.json": [
        "stability", "--input", "ex1_7.json", "--point", "all", "--twist", "-1/2",
    ],
    "stability_sec7_1_1_0.json": [
        "stability", "--input", "sec7_1.json", "--point", "all", "--twist", "1,0",
    ],
    "stability_sec7_1_1_0_relative.json": [
        "stability", "--input", "sec7_1.json", "--point", "all", "--twist", "1,0",
        "--relative-interior",
    ],
    "stability_sec7_1_half_half.json": [
        "stability", "--input", "sec7_1.json", "--point", "all", "--twist", "1/2,1/2",
    ],
    "stability_sec7_1_half_half_relative.json": [
        "stability", "--input", "sec7_1.json", "--point", "all", "--twist", "1/2,1/2",
        "--relative-interior",
    ],
    "stability_sec7_1_m2_5_m3_5.json": [
        "stability", "--input", "sec7_1.json", "--point", "all", "--twist", "-2/5,-3/5",
    ],
    "strata_sec7_1.json": ["strata", "--input", "sec7_1.json"],
    "strata_ex1_7.json": ["strata", "--input", "ex1_7.json"],
    "strata_sec7_1_1_2_m1_3.json": [
        "strata", "--input", "sec7_1.json", "--twist", "1/2,-1/3",
    ],
    "strata_ex1_7_m1_2.json": ["strata", "--input", "ex1_7.json", "--twist", "-1/2"],
    "beta_sec7_1.json": ["beta", "--input", "sec7_1.json"],
    "beta_ex1_7.json": ["beta", "--input", "ex1_7.json"],
    "beta_sec7_1_1_2_m1_3.json": [
        "beta", "--input", "sec7_1.json", "--twist", "1/2,-1/3",
    ],
    "svg_sec7_1.svg": ["svg", "--input", "sec7_1.json"],
    "adapted_sec7_1_1_2.json": ["adapted", "--input", "sec7_1.json", "--lambda", "1,2"],
    "admissible_cone_sec7_1.json": ["admissible-cone", "--input", "sec7_1.json"],
    "external_equiv_external_toy.json": ["external-equiv", "--input", "external_toy.json"],
    "usweep_sec7_1_uhat_stable_1_0.json": [
        "usweep", "--input", "sec7_1.json", "--point", "uhat_stable", "--lambda", "1,0",
    ],
    "hstable_sec7_1_h_stable.json": [
        "hstable", "--input", "sec7_1.json", "--point", "h_stable",
    ],
}


def test_reports_match_golden_files(tmp_path):
    mismatched = []
    for name, (command, flag, spec, *rest) in CASES.items():
        out = tmp_path / name
        argv = [command, flag, str(CORPUS / spec), *rest, "--output", str(out)]
        assert run(argv) == 0, name
        if out.read_bytes() != (HERE / "golden" / name).read_bytes():
            mismatched.append(name)
    assert not mismatched
