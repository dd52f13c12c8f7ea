"""Cross-validate the two-term composition calculus against integration.

The closed-form rules for composing and inverting corner transition maps
are exact algebra, but easy to get subtly wrong (resonant ties, compensator
wrapping, inversion of the second term). The compose-check harness draws
random two-term maps for every sign case, composes them exactly in
multi-precision arithmetic, with as many digits as each case's finite
differences need, peels the first two asymptotic terms back out of the
numbers, and compares against the closed forms.
"""

from polycycles.composecheck import run_compose_check

report = run_compose_check(seed=42, count=50)

print(f"seed {report.seed}, {report.count} trials per case")
print()
for case in report.cases:
    print(f"  {case.case:16s} worst leading dev {case.max_leading_dev:9.3e}"
          f"   worst second dev {case.max_second_dev:9.3e}")
print()
print("worst leading deviation :", f"{report.worst_leading:.3e}")
print("worst second deviation  :", f"{report.worst_second:.3e}")
print("passed at (1e-10, 1e-8) :", report.passed())

# The same harness with a deliberate bias shows the check has teeth: a
# one-in-a-million error in the closed forms is far above the noise floor.
biased = run_compose_check(seed=42, count=50, bias=1e-6)
print("passed with 1e-6 bias   :", biased.passed())
