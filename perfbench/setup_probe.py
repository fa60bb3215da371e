"""Time one fresh interpreter's set-up for a workload and print it in seconds.

Set-up is ``import smml1d``, building each model pair named on the command
line (``normal-normal=2`` or ``exponential-gamma=2,1``), and computing its
marginal entropy and carrier constant.  The carrier constant is reached
through ``message_length`` of the one-cut median code book, the package's
own public path to it.  ``perfbench/run.py`` runs this with ``src`` on
``PYTHONPATH``.
"""

import sys
import time

start = time.perf_counter()
import smml1d  # noqa: E402  (the import is part of what is timed)

for spec in sys.argv[1:]:
    name, _, params = spec.partition("=")
    make = {"normal-normal": smml1d.make_normal_normal,
            "exponential-gamma": smml1d.make_exponential_gamma}[name]
    family, marginal = make(*(float(p) for p in params.split(",")))
    smml1d.marginal_entropy(marginal)
    book = smml1d.codebook_from_cutpoints(family, marginal, [marginal.quantile(0.5)])
    smml1d.message_length(family, marginal, book)
print(repr(time.perf_counter() - start))
