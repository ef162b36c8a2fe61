"""Byte-exact outputs of fixed CLI runs, pinned by SHA-256.

Each case runs one ``fgqa`` command in a fresh directory and hashes its
stdout, its stderr, its exit code and every CSV it writes.  The cases
cover every sweep parameter, ``derive``, a ``decohere`` whose ``delta_K``
column repeats (one delta is listed twice), a uniform ``fg_grid``
anneal whose histogram holds degenerate energies and repeated
frequencies, a 12-site chain anneal with nonzero fields, which steps
the full state in place, a 9-site chain anneal with fields, which steps it
in the cycled layout, a 6-site chain anneal with fields, the smallest that
the blocked stepper takes, and a 13-site MAX-CUT anneal, which steps the
spin-flip sector in place, so any change to how a value is computed or
formatted, or to which stepper takes a run, shows as a changed digest.

To print the digests of the current tree (after a change that is meant
to move the outputs), run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from fgqa.cli import main

GEOMETRY = {"length_nm": 10.0, "height_nm": 100.0, "tunnel_oxide_nm": 3.5,
            "coupling_ratio": 0.3}


def _sweep(parameter: str, lo: float, hi: float, points: int = 25, **extra) -> dict:
    return {"schema_version": 1, "parameter": parameter, "geometry": GEOMETRY,
            "range": {"min": lo, "max": hi, "points": points}, **extra}


# id -> (command, config, extra arguments)
CASES = {
    "sweep-L": ("sweep", _sweep("L", 5.0, 15.0), []),
    "sweep-d_ox": ("sweep", _sweep("d_ox", 2.5, 4.0), []),
    "sweep-Z_FG": ("sweep", _sweep("Z_FG", 10.0, 100.0), []),
    "sweep-V_CG": ("sweep", _sweep("V_CG", -1.5, 1.0), []),
    "sweep-parabola": ("sweep", _sweep("V_CG1-parabola", -1.0, 1.0, points=21,
                                       n_values=[-2, -1, 0, 1, 2]), []),
    "derive": ("derive", {"schema_version": 1, "lengths_nm": [5, 10, 15, 7.5, 10, 20],
                          "tunnel_oxide_nm": 3.5, "fg_height_nm": 100,
                          "coupling_ratio": 0.3}, []),
    "decohere": ("decohere", {"schema_version": 1, "delta_kelvin": [10.0, 100.0, 10.0, 0.5],
                              "time_points": 40}, []),
    "anneal-fg_grid": ("anneal", {
        "schema_version": 1,
        "problem": {"kind": "fg_grid", "rows": 2, "cols": 2, "geometry": GEOMETRY},
        "schedule": {"t_total": 200.0, "steps": 300, "profile": "exponential"},
        "shots": 1024}, ["--seed", "5"]),
    "anneal-chain": ("anneal", {
        "schema_version": 1,
        "problem": {"kind": "chain",
                    "h": [0.3, -0.2, 0.1, 0.25, -0.15, 0.05, -0.3, 0.2, -0.1, 0.15, -0.25, 0.35],
                    "j": [0.5, -0.4, 0.6, 0.3, -0.5, 0.45, 0.35, -0.6, 0.4, 0.55, -0.3]},
        "schedule": {"delta0_ev": 2.0, "t_total": 20.0, "steps": 400,
                     "profile": "exponential"},
        "shots": 2048}, ["--seed", "11"]),
    "anneal-chain-cycled": ("anneal", {
        "schema_version": 1,
        "problem": {"kind": "chain",
                    "h": [-0.2, 0.35, 0.1, -0.3, 0.25, -0.05, 0.15, -0.25, 0.3],
                    "j": [0.4, -0.55, 0.5, 0.35, -0.45, 0.6, -0.3, 0.5]},
        "schedule": {"delta0_ev": 1.5, "t_total": 15.0, "steps": 500,
                     "profile": "linear"},
        "shots": 2048}, ["--seed", "3"]),
    "anneal-chain-6": ("anneal", {
        "schema_version": 1,
        "problem": {"kind": "chain", "h": [0.25, -0.3, 0.15, -0.1, 0.3, -0.2],
                    "j": [0.45, -0.5, 0.35, 0.55, -0.4]},
        "schedule": {"delta0_ev": 1.5, "t_total": 12.0, "steps": 400,
                     "profile": "exponential"},
        "shots": 2048}, ["--seed", "23"]),
    "anneal-maxcut-sector": ("anneal", {
        "schema_version": 1,
        "problem": {"kind": "maxcut",
                    "edges": [[i, (i + 1) % 13, 1.0 + 0.25 * (i % 3)] for i in range(13)]
                    + [[i, (i + 5) % 13, 0.75] for i in range(0, 13, 2)]},
        "schedule": {"delta0_ev": 1.0, "t_total": 25.0, "steps": 300,
                     "profile": "exponential"},
        "shots": 4096}, ["--seed", "17"]),
}

# SHA-256 of each output, recorded before the CSV writer formatted each
# distinct value once.  Since then only the anneal traces moved, when the
# Ising term of <H> came to be summed pairwise and the fg_grid case to be
# annealed in its spin-flip sector, and the fg_grid stdout, when the cut
# line came to be printed for MAX-CUT problems only.  The fg_grid trace moved
# again, by 3.7e-16 of max |<H>| at most, when the Walsh stepper came to read
# the sx terms of <H> from the state's Walsh spectrum.  The chain trace moved
# by 1.5e-16 of max |<H>| at most when the blocked stepper came to sum the
# Ising term as |chi|^2 diag per state.  Both traces moved, by 1.1e-18 eV
# (fg_grid) and 3.0e-16 of max |<H>| (chain) at most, when the steppers came
# to hold the state with its closing half phase divided out.  Both anneal
# stdouts and histograms moved, and no trace, when the shots came to be
# drawn by inverting the CDF of |psi|^2 instead of by numpy's multinomial,
# which reads the same final state but spends the seed's stream
# differently.  The fg_grid trace moved, in 291 of 301 energies by 1.7e-18 eV
# at most, and its histogram did not, when zero-field runs below 12 sites
# came to step the full state instead of the spin-flip sector.  The
# anneal-chain-cycled and anneal-maxcut-sector cases were recorded after that,
# and the anneal-chain-6 case after 6-site runs came to be stepped by the
# blocked stepper instead of the Walsh one.  Since then each stepper hands a
# record its physical state, and one reader computes <H> there for both.  The
# four exponential-profile traces then moved, and nothing else did: every
# record's Delta comes from one array call of the schedule, whose rounding
# differs from the old scalar call's by one ulp at some points (3 of 201
# deltas in anneal-chain-6, 6 of 201 in anneal-chain, 14 of 301 in fg_grid
# and 16 of 301 in anneal-maxcut-sector, by 3.3e-16 relative at most).  With
# them one anneal-chain-6 energy moved by 4.4e-16 eV, and the fg_grid trace,
# whose 4 sites the Walsh stepper takes, moved in 229 of 301 energies by
# 5.4e-19 eV at most, when its records came to be read by the shared reader
# instead of from the Walsh spectrum.
DIGESTS = {
    "sweep-L": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "6b8b1ec77c6538a8039208faeb7dac229e6fee8ae42db67ee2f7ee030111c615",
    },
    "sweep-d_ox": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "fbeb3712648e936c62690af23ba122283aeff02210b70e3314e4320d12d3d18f",
    },
    "sweep-Z_FG": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "923ce8781c9d15694fdaff0b1cac23625e453bb5ec21494e39b1e4a30a431b66",
    },
    "sweep-V_CG": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "9d829c0f79120a13f0a9a246892de7eed74351ad06d32bb7df7b978d847c87b4",
    },
    "sweep-parabola": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "f0f7c9cd5b1532e2779802a7ba4e0e740c33bc6afee5a0b2325ef91df0fa1c3a",
    },
    "derive": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "eee4e7400e072853441b2d64c990b09adc970238ac9f855f41e265bbcabe2ce7",
    },
    "decohere": {
        "exit": 0,
        "stdout": "23a23f6eb863439cc46f731af1c7588d52980f1882c3fd90785a113dbd781256",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "76287008e91642ef6eb67b7f62940a4103214ab7fc628279a43e48cd7f6dc0ae",
    },
    "anneal-fg_grid": {
        "exit": 0,
        "stdout": "51e9e09d3b49ae9f367bc42b13aeb194b1733418ff9668c853faaedffe3eb2ba",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_histogram.csv": "2467414ffd41a11db3c6601d6e871a5c1949faba0d379479698aed75c435733a",
        "out_trace.csv": "b44dcd9b6385ad3053991a4a6db66e09a0d458944d6f8c988861f0e6fe8862cb",
    },
    "anneal-chain": {
        "exit": 0,
        "stdout": "137e930a428e6079e12e3c84fcb04cca62a7f38a84e13bb16242fc901ff097ba",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_histogram.csv": "0ad9451fb0a0e89e7bba3a71db708cb08c48ca94fce2443e41aa9b66059c5462",
        "out_trace.csv": "7a5b7de7ea80c6e883d3cb24bd064a99cd81095a9424b6a84da0dad1840955a0",
    },
    "anneal-chain-cycled": {
        "exit": 0,
        "stdout": "6308be4bd96c8090328774a6c0c15f39477d82110e80a1413a5bd176e19c3bab",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_histogram.csv": "ee17d1258e97a39106cffb5d04e8b20ceb735e30cf4567aac339910335048661",
        "out_trace.csv": "2a8f78e97e0fca2eb8901a36aaf7ffedd1a2021fe7adcad2af99f3ea52760ebb",
    },
    "anneal-chain-6": {
        "exit": 0,
        "stdout": "c8b4d3446cb2994d298935e277541bc12173c7c383a0989fb133b6966e399f6f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_histogram.csv": "37a698eda35cd8c6ef1829a5054da9ee1ac1170011f5b36d006b54afac82b9ec",
        "out_trace.csv": "f045283b4c80e3231850b5f810dd91844c1c2a69738341f4e0e09a1986bb90ec",
    },
    "anneal-maxcut-sector": {
        "exit": 0,
        "stdout": "0a70b8300fe009e193ff90d89eec80087bb2bdeb566ec9f5a95da7cab444dfb1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_histogram.csv": "662b9bd677a9f505f86a67f0dd891992c3a21054df2ce9cfcc56820cd4e3b44e",
        "out_trace.csv": "c43174f9ea2da531d41b0be7772737c45071702cd6746cbad0ba71897c2a8f6a",
    },
}


def digests(command: str, cfg: dict, extra: list[str]) -> dict:
    """The exit code and the SHA-256 of stdout, stderr and each CSV of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.json")
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp, "out")),
                         *extra])
        texts = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
        texts.update((p.name, p.read_bytes()) for p in sorted(Path(tmp).iterdir())
                     if p != path)
    return {"exit": code, **{name: hashlib.sha256(data).hexdigest()
                             for name, data in texts.items()}}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recorded_digests(case):
    assert digests(*CASES[case]) == DIGESTS[case]


if __name__ == "__main__":
    print(json.dumps({case: digests(*args) for case, args in CASES.items()}, indent=4))
