"""Tour of the ordinal comparison model.

Builds the four stock strength links and a couple of magnitude patterns,
then shows the quantities the rest of the library is built on: the outcome
pmf, the win probability, moments and SNR, and the JSON descriptor round
trip.
"""

import json

import numpy as np

from ordrank import OrdinalModel, PatternDistribution, StrengthLink
from ordrank.model import LINK_NAMES

# The four stock links, by the `name[:scale]` specs that the CLI flags,
# simulate configs, model descriptors and the CSV `link` column all use.
# All are strictly increasing and odd; `:scale` multiplies the output.
# `logitnorm` is the logit of the normal CDF (Thurstone); the logit of the
# logistic CDF is x itself, so `identity:0.5` is the classical
# Bradley-Terry propensity x/2.
links = {name: StrengthLink.from_spec(name) for name in LINK_NAMES}
print("link values at x = 0.5:")
for name, link in links.items():
    print(f"  {name:>13}: {link(0.5): .6f}   (oddness: {link(-0.5): .6f})")
print("  Bradley-Terry at scale 1/2 is", StrengthLink("identity", 0.5).spec)

# Magnitude patterns: weights over |Y| in {1..K}, here from the exponential
# families psi(k) = -beta*k and psi(k) = -beta*k^2.
for spec, pattern in [
    ("abs, beta=0.1", PatternDistribution.from_family("abs", 0.1, 4)),
    ("sq,  beta=0.3", PatternDistribution.from_family("sq", 0.3, 4)),
]:
    print(f"\npattern {spec}: weights = {np.round(pattern.weights, 4)}")

model = OrdinalModel(StrengthLink("identity"),
                     PatternDistribution.from_family("abs", 0.1, 4))

# The pmf over {-4..-1, 1..4}; positive outcomes get the sigmoid(2*phi)
# share of their magnitude's weight.
gamma = 0.8
values, probs = model.pmf_table(gamma)
print(f"\npmf at gamma={gamma}:")
for v, p in zip(values, probs):
    print(f"  Y={v:+d}: {p:.4f}")
print(f"  total: {probs.sum():.12f}")
print(f"  P(Y > 0) = {model.prob_positive(gamma):.6f} (pattern-independent)")

mom = model.moments(gamma)
print(f"  mean {mom.mean:.4f}, variance {mom.variance:.4f}, snr {mom.snr:.4f}")

# Sampling is inverse-CDF over the outcome table and fully seeded.
draws = model.sample(gamma, np.random.default_rng(7), 100000)
print(f"\nempirical P(Y>0) from 1e5 draws: {np.mean(draws > 0):.4f}")

# Models serialize to a compact JSON descriptor, the one `model-info`
# prints: the link spec and the pattern weights, which survive bit-exactly.
text = json.dumps(model.to_dict())
print("\nJSON descriptor:", text[:70], "...")
d = json.loads(text)
again = OrdinalModel(StrengthLink.from_spec(d["link"]),
                     PatternDistribution.from_dict(d["pattern"]))
assert again == model
print("round trip: link and weights identical bit for bit")
