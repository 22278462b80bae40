"""Every report byte is pinned: the sha256 of ``BASE.csv`` and ``BASE.json``
for a fixed set of runs, captured before the columnar emitter replaced the
per-row one.  Any change to a number's text, a key order, a null or the
layout of either file shows here."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from safelogrank.cli import EXIT_CONTINUE, EXIT_REJECT, main
from safelogrank.data import dataset_from_stream, write_dataset
from safelogrank.simulate import sample_single_event_stream, stream_rng

SMALL = ["--m1", "100", "--m0", "100", "--reps", "40", "--seed", "1", "--cap", "150"]

# Inputs are named relative to the working directory, so the paths a
# ``--meta`` summary records do not depend on where the test runs.
RUNS = {
    # the runs of test_cli::test_reports_are_standard_json
    "exact": ["analyze", "strong.csv", "--theta1", "0.5"],
    "two-sided": ["analyze", "strong.csv", "--theta1", "0.5", "--two-sided"],
    "plugin": ["analyze", "strong.csv", "--test", "plugin"],
    "bayes": ["analyze", "strong.csv", "--test", "bayes", "--theta1", "0.5"],
    "gaussian-tied-first": ["analyze", "tie-first.csv", "--test", "gaussian", "--theta1", "0.7"],
    "gaussian-meta": ["analyze", "tie-first.csv", "--meta", "strong.csv", "--test", "gaussian",
                      "--theta1", "0.7", "--allow-unbalanced-gaussian"],
    "design-obf": ["design", "--theta1", "0.5", "--test", "exact,gaussian,plugin", "--obf", *SMALL],
    "design-tied": ["design", "--theta1", "0.5", "--true-theta", "2.0", "--tie-h0", "0.05", *SMALL],
    "confseq": ["confseq", "strong.csv", "--grid", "0.9:1.1:3"],
    # None cells: rows past the O'Brien-Fleming horizon
    "boundary-past-nmax": ["boundary", "--theta1", "0.7", "--nmax", "5", "--n-to", "8"],
    "audit": ["audit", "--theta-from", "0.1", "--theta-to", "2.0", "--points", "21",
              "--ratios", "1:1,3:1", "--scale", "60"],
    # "rows": [] and an empty CSV body
    "zero-events": ["analyze", "censored.csv", "--theta1", "0.7"],
    # an unattained-power design: one row and a non-empty unattained list
    "design-unattained": ["design", "--theta1", "0.7", "--m1", "100", "--m0", "100",
                          "--reps", "40", "--seed", "1", "--cap", "50", "--obf"],
}

GOLDEN = {
    # The JSON digests of exact, two-sided, plugin and bayes were re-pinned when
    # single-event kernel cells moved from np.logaddexp (libm's log1p(exp()))
    # to the softplus form on numpy's vectorized exp and log1p, and the log
    # risk ratio from log(y1) - log(y0) to log(y1 / y0), one rounding fewer.
    # Each comment counts the moved cells among the 300 full-precision
    # log10_e cells.  No CSV cell (10 significant digits), decision or
    # crossing moved.
    # JSON: 113 log10_e cells moved, by at most 1.8e-15; the summary's final
    # and largest log10_e moved in their last bits.
    "exact": (
        "85fb63f8ba2409ce4184ef1942fa908b8e216fdcb0f2f32103d414b3a247aa6e",
        "14f7c50bc04c2a767a300990e2e7f287d9adb2c91f0c47c953a6170928a1dcdd",
    ),
    # JSON: 112 log10_e cells moved, by at most 1.8e-15, and the summary as for
    # "exact".
    "two-sided": (
        "87b90222dc93d61c99303c52c1d36adc0c207456b250ed107461820591c2b521",
        "ca2ccac2ea6b0051d4885a47842943e7d4730bfc323c96162b44b70c17257844",
    ),
    # The JSON digest was re-pinned when plug-in traces moved from summing
    # every offset on every iteration to Taylor series about a centre: 298 of
    # its 300 full-precision log10_e cells moved, by at most 7.1e-15.  The
    # CSV (10 significant digits), the decision and the crossing did not.
    # Re-pinned again for the softplus kernel: 249 log10_e cells moved, by at
    # most 3.6e-15; the summary did not.  Re-pinned when re-centring reads
    # summed each power moment in ascending offset order, not pairwise: 278
    # log10_e cells moved, by at most 3.5e-14 relative (8.9e-15 absolute),
    # and the summary's final and largest log10_e in their last bits.
    "plugin": (
        "f1a8f4cbc7f7e45ecd7f2b7f5f3591f11616137d3f7afda460e5b1fddcf7dac6",
        "a231e5e907201175208ce82610a7c604d8951930d5a3008d59a86e0b696fa22a",
    ),
    # JSON: 291 log10_e cells moved, by at most 1.1e-14, and the summary as for
    # "exact".
    "bayes": (
        "3340121e88539487867b6b04dbb52ce2745b50f547d796f214fa4a4e2f979c38",
        "55e8b8e0397e7285446042a7cc173b9623bb287078e6733ef2764c5841bb9699",
    ),
    "gaussian-tied-first": (
        "c486e392e982da4e245c4bf08dd961258425731c6f6b2c50cf8505a07e01b98a",
        "1497dd3563eb5b991697441d56f8fd11db8afa7254fbbd801b8a1cc83fc0df62",
    ),
    "gaussian-meta": (
        "c9cfad875c7a15a3bd8afde3ff4356675da9bdd44ad1ff4c6e2ed598cb08aa4f",
        "065d3bed1a8455dcb04dfe3ff2319ab0deadcadf88da3931edc918b89ff55e47",
    ),
    "design-obf": (
        "86c90dcf5ab149094382c5e354f20aad7592b12633cc2df0a0f0cc8016291c6d",
        "5d2522966a02ac73eae85825cafff3e3e278cf0c49d5af08dff1a0c276466002",
    ),
    "design-tied": (
        "b6fdbc175c2aaed1ba87a47aaf50414590a3c00f93c8f4c243f73be0e29ac217",
        "3e7fb95abe97da6af1fd6ccc53c929269f92fe57ec1b2967932f204309bb5b91",
    ),
    "confseq": (
        "8e13e0334cd163154b068be4a6bb510417bd17eb1859e960810971d6fd3bb618",
        "0b068bfb2aa6cbd53d849170dadfffbb6cfe337e544cde9efb71fab09043be45",
    ),
    "boundary-past-nmax": (
        "c3cd94db8f3bde9173e54d46d324059afe9c1f2152841a4da59a072b10e4f5f4",
        "2ee91c410ca48e8bf2e48b5db9667798a5a81a9fe11b7df27bb8df251b13c331",
    ),
    "audit": (
        "4b5fa79864288120e316f0b3fa473b8e4ad52892f0434d4202bdefc5ab5738c2",
        "6444f5709e47dc06040df7c3b117e79e4dbdae42e973ffa2049d38b03c5365db",
    ),
    "zero-events": (
        "a50af9403fadfde01438dde23947ba8fdca84b217f9347562afa690c1c73a74b",
        "4d198f84a118c877a915c65664d90968db7655dbb48267d1f186a7c936b3d277",
    ),
    "design-unattained": (
        "a7eff94a4b89d3e780e460527021c3697e024908ffacd9627a270b471bf04574",
        "3437088d27a36343c1fc4bb4c3f8811c5989a08f6ba8591da9b6fd3c949d1447",
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    stream = sample_single_event_stream(150, 150, 0.35, stream_rng(1001, 0))
    write_dataset(dataset_from_stream(stream), str(root / "strong.csv"))
    # the first event time takes its whole 1:1 risk set
    (root / "tie-first.csv").write_text(
        "entry,time,group,status\n0,1,1,event\n0,1,0,event\n1,2,1,event\n"
        "1,3,0,event\n1,4,1,censored\n1,4,0,censored\n"
    )
    (root / "censored.csv").write_text("time,group,status\n1,0,censored\n2,1,censored\n")
    return root


def report_digests(name: str) -> tuple[str, str]:
    assert main(RUNS[name] + ["--out", name]) in (EXIT_CONTINUE, EXIT_REJECT)
    return tuple(
        hashlib.sha256(Path(name + ext).read_bytes()).hexdigest() for ext in (".csv", ".json")
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden_digests(name, inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    assert report_digests(name) == GOLDEN[name]
