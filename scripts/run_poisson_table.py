"""Poisson log-link design: empirical bias/sd of the MLE versus classical
and resized-bootstrap estimates, plus boot-g coverage."""

import argparse

from resizedboot import named_design, run_bias_sd_study, run_coverage


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-reps", type=int, default=200)
    ap.add_argument("--resized-reps", type=int, default=50)
    ap.add_argument("--B", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gamma-mode", choices=("known", "estimated"), default="known")
    ap.add_argument("--coverage", action="store_true",
                    help="also run a boot-g coverage experiment")
    args = ap.parse_args()

    design = named_design("poisson-large", seed=args.seed)
    study = run_bias_sd_study(
        design, n_reps=args.n_reps, seed=args.seed,
        resized_reps=args.resized_reps, B=args.B, gamma_mode=args.gamma_mode,
    )
    print(study.format_bias_sd_table())

    if args.coverage:
        report = run_coverage(
            design, methods=("classical", "boot-g"), levels=(0.95, 0.9, 0.8),
            n_reps=max(50, args.n_reps // 4), B=args.B, seed=args.seed,
            gamma_mode=args.gamma_mode,
        )
        print()
        print(report.format_table())


if __name__ == "__main__":
    main()
