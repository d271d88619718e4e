"""Second-order accuracy on the disk via a manufactured solution.

Solves -laplace(u) = 2 pi^2 sin(pi x) sin(pi y) on the disk with the exact
trace as Dirichlet data, using full W-cycles down to an 8-cell coarsest grid
and iterating to a 1e-10 residual.  Errors are measured at grid nodes
strictly inside the domain; nodes outside (whose values the cut cells still
carry) approximate an extension of the solution rather than the solution
itself, so they are excluded.  Bilinear elements are second order, so each
halving of h should divide the errors by about four.

Run:  python demos/manufactured_accuracy.py
"""

from ghostmg.experiments import ExperimentConfig, run_accuracy_study


def main():
    config = ExperimentConfig(
        experiment="accuracy",
        dimension=2,
        domain="disk",
        ns=(32, 64, 128, 256),
        gamma=(2.0,),
        eta=(4,),
        cycle="w",
        iterations=40,
        window=(1, 40),
    )
    rows = run_accuracy_study(config)
    print("manufactured solution on the disk, W-cycles to 1e-10 residual")
    print(f"{'n':>5s} {'h':>10s} {'max error':>12s} {'ratio':>7s} "
          f"{'l2 error':>12s} {'ratio':>7s}")
    for row in rows:
        linf_ratio = "" if row.linf_ratio is None else f"{row.linf_ratio:7.3f}"
        l2_ratio = "" if row.l2_ratio is None else f"{row.l2_ratio:7.3f}"
        print(f"{row.n:5d} {row.h:10.6f} {row.linf_error:12.4e} "
              f"{linf_ratio:>7s} {row.l2_error:12.4e} {l2_ratio:>7s}")


if __name__ == "__main__":
    main()
