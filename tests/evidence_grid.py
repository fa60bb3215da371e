"""Evidence grid: which books every stage of a set of sweeps keeps.

Run as ``PYTHONPATH=src python tests/evidence_grid.py``.  It prints one line
per sweep, those of ``GRID`` and then those of ``FURTHER``.  Each names the
sweep and gives its kept total, its per-stage counts, the sha256 of every
stage's list of (length, cuts), best first, and the sweep's work: its Newton
runs, its insertion scans and its interval integrals at the solver's
tolerance.  It prints no timings, so the outputs of two checkouts can be
compared with ``diff``: a change that keeps every book bit for bit and does
the same work prints the same lines.  The name has no ``test_`` prefix, so
pytest does not collect it.
"""

import hashlib

from smml1d import estimator, make_exponential_gamma, make_normal_normal

# (name, model pair, n_max): the sweeps whose books a change of the solver
# must keep, the wide priors (alpha 10 and 30) and the windows with empty
# stages (alpha 1.5 and 2.2) among them.
GRID = [
    ("normal alpha=2 n<=40", make_normal_normal(2.0), 40),
    ("normal alpha=10 n<=60", make_normal_normal(10.0), 60),
    ("normal alpha=30 n<=50", make_normal_normal(30.0), 50),
    ("normal alpha=1 n<=8", make_normal_normal(1.0), 8),
    ("normal alpha=0.5 n<=8", make_normal_normal(0.5), 8),
    ("normal alpha=1.5 n<=8", make_normal_normal(1.5), 8),
    ("normal alpha=3 n<=8", make_normal_normal(3.0), 8),
    ("normal alpha=2.2 n<=6", make_normal_normal(2.2), 6),
    ("lomax alpha=2 beta=1 n<=6", make_exponential_gamma(2.0, 1.0), 6),
    ("lomax alpha=10 beta=1 n<=6", make_exponential_gamma(10.0, 1.0), 6),
    ("lomax alpha=1.05 beta=1 n<=5", make_exponential_gamma(1.05, 1.0), 5),
]

# (name, model pair, n_max): 75 further sweeps, about a second in all.  The
# normal prior's scale in steps of 0.05 over its windows of empty stages, wider
# priors to n=30, the Lomax pair's shape at beta=1 and its scale at alpha=2.
FURTHER = (
    [(f"normal alpha={a:g} n<=6", make_normal_normal(a), 6)
     for a in (round(0.05 * k, 2) for k in range(6, 61))]
    + [(f"normal alpha={a:g} n<=30", make_normal_normal(a), 30)
       for a in (3.5, 5.0, 7.0, 12.0, 20.0)]
    + [(f"normal alpha={a:g} n<=8", make_normal_normal(a), 8) for a in (1.3, 1.5)]
    + [("normal alpha=10 n<=45", make_normal_normal(10.0), 45)]
    + [(f"lomax alpha={a:g} beta=1 n<=6", make_exponential_gamma(a, 1.0), 6)
       for a in (1.02, 1.2, 3.0, 5.0, 20.0, 40.0)]
    + [(f"lomax alpha=2 beta={b:g} n<=5", make_exponential_gamma(2.0, b), 5)
       for b in (1e-10, 1e-3, 1e3, 1e10, 1e50, 1e100)]
)

# the calls counted as a sweep's work: one per Newton run, one per scan and one
# per interval integral at the solver's tolerance
WORK = ("newton_solve", "_outward_root", "interval_integrals")


def counted_sweep(family, marginal, n_max):
    """solve_sweep's stages and the calls it made to each function of WORK,
    counted by wrapping the module attributes for the one sweep."""
    counts = dict.fromkeys(WORK, 0)
    originals = {name: getattr(estimator, name) for name in WORK}

    def counting(name):
        def wrapper(*args, **kwargs):
            # the scans' integrals pass their looser rel_tol and are not counted
            counts[name] += "rel_tol" not in kwargs
            return originals[name](*args, **kwargs)
        return wrapper

    for name in WORK:
        setattr(estimator, name, counting(name))
    try:
        stages = estimator.solve_sweep(family, marginal, n_max)
    finally:
        for name, original in originals.items():
            setattr(estimator, name, original)
    return stages, counts


def describe(name, stages, counts):
    """One line: the sweep's name, kept total, per-stage counts, hash and work."""
    books = repr([
        (n, [(r.message_length, r.cuts) for r in reps]) for n, reps in sorted(stages.items())
    ])
    kept = [len(reps) for _, reps in sorted(stages.items())]
    digest = hashlib.sha256(books.encode()).hexdigest()
    return (f"{name}: kept {sum(kept)} per stage {kept} sha256 {digest} "
            f"runs {counts['newton_solve']} scans {counts['_outward_root']} "
            f"integrals {counts['interval_integrals']}")


def main():
    for name, (family, marginal), n_max in GRID + FURTHER:
        print(describe(name, *counted_sweep(family, marginal, n_max)), flush=True)


if __name__ == "__main__":
    main()
