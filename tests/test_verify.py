from mmfp import cli, verify
from mmfp.errors import MonotonicityError

# the 28 rows of `mmfp verify`, in the order the CLI prints them
PINNED = [
    ("core", "max-side bound and tightness"),
    ("core", "min-side bound and tightness"),
    ("core", "surrogate sandwich on random mixed problems"),
    ("core", "flipped-ratio shortcut is only a lower bound"),
    ("core", "term and objective gradients match finite differences"),
    ("core", "outer-function derivatives match finite differences"),
    ("matrix", "bracket never exceeds the matrix ratio (PSD order)"),
    ("matrix", "brackets are tight at the closed-form auxiliaries"),
    ("matrix", "spectral identity for trace and logdet outers"),
    ("matrix", "1x1 matrix operations reduce to the scalar ones"),
    ("matrix", "matrix surrogate sandwich"),
    ("lagrangian", "closed-form auxiliaries are stationary and recover the logs"),
    ("lagrangian", "dual surrogate sandwich on random instances"),
    ("lagrangian", "no logarithm of any input-dependent quantity remains"),
    ("apps", "age formula equals its two-fraction split"),
    ("apps", "total age is order-sensitive"),
    ("apps", "secrecy rate equals its leakage rewrite"),
    ("apps", "secure surrogates are tight at their anchors"),
    ("apps", "radar bracket equals half the likelihood curvature"),
    ("apps", "rank-1 lift reproduces the covariance objective"),
    ("apps", "radar derivatives match finite differences"),
    ("apps", "age traces are monotone nonincreasing (20 seeds)"),
    ("apps", "secure traces are monotone nondecreasing (20 seeds)"),
    ("apps", "radar bound traces are monotone nonincreasing (20 seeds)"),
    ("apps", "secure rate bound dominates every point of its box"),
    ("apps", "age bound lies below every age in its box"),
    ("apps", "sum CRB never falls below its bound"),
    ("apps", "orthogonal codes attain the bound when L >= M"),
]


def test_table_rows_are_pinned_in_order():
    rows = [(check.suite, check.name) for check in verify.CHECKS]
    assert rows == PINNED
    assert len({name for _, name in rows}) == len(rows)


def test_a_row_that_raises_fails_and_the_rows_after_it_still_run(monkeypatch, capsys):
    def raises():
        raise MonotonicityError("objective decreased")

    table = (
        verify.Check("core", "raises", lambda rng: (), raises, 1),
        verify.Check("core", "holds", lambda rng: (), lambda: True, 1),
    )
    monkeypatch.setattr(verify, "CHECKS", table)
    assert cli.main(["verify", "--suite", "core"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  [core] raises",
        "PASS  [core] holds",
        "1/2 invariants hold",
    ]
