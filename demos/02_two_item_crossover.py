"""Two items, one question: does throwing away magnitudes help?

Estimates P(raw-sum metric ranks the pair right) and P(sign-sum metric
ranks it right) over a grid of round counts, then overlays the closed-form
normal-limit predictors.  Past a modest number of rounds the sign-sum curve
pulls ahead, and the limits say by how much.
"""

from ordrank import OrdinalModel, PatternDistribution, StrengthLink, asymptotic_two_item
from ordrank.harness import default_config, run_experiment

GAMMA = 0.15
BETA = 0.1

config = default_config(
    "two_item",
    gammas=(GAMMA,),
    betas=(BETA,),
    L_grid=(50, 100, 200, 300, 400, 500),
    replications=20000,
    base_seed=2,
)
result = run_experiment(config)

model = OrdinalModel(StrengthLink("identity"),
                     PatternDistribution.from_family("abs", BETA, config.K))

print(f"gamma={GAMMA}, beta={BETA}, K={config.K}, "
      f"{config.replications} replications per point\n")
print(f"{'L':>5} {'P(raw>0)':>10} {'P(sign>0)':>10} {'gap':>9} "
      f"{'raw limit':>10} {'sign limit':>11}")
for point in result.points:
    L = point.params["L"]
    p_sign_lim, p_raw_lim = asymptotic_two_item(model, GAMMA, L)
    raw = point.metrics["p_raw_positive"].estimate
    sign = point.metrics["p_sign_positive"].estimate
    gap = point.metrics["p_sign_minus_raw"]
    star = "*" if gap.estimate > 3 * gap.se else " "
    print(f"{L:>5} {raw:>10.4f} {sign:>10.4f} {gap.estimate:>8.4f}{star} "
          f"{p_raw_lim:>10.4f} {p_sign_lim:>11.4f}")
print("\n(* marks gaps larger than 3 paired Monte-Carlo sigma)")

print("\nplot-ready CSV is one call away:")
print("  result.to_csv()  ->", result.to_csv().splitlines()[0])
