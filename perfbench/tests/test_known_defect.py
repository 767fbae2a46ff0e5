"""The audit's check on unrelated models, which the program fails today.

Every unrelated model in the audit fleet should give NOT_VERIFIED. Freshly
initialised models do verify, at every seed tried, so this test fails until
the scheme is fixed; the benchmark's ``audit`` runs record the same count as
``unrelated_verified`` instead of failing (see NOTES.md, "Known defect").

Run from the root of the repository (about 20 s):
python3 -m pytest perfbench/tests/test_known_defect.py -q
"""

from speed import SpeedMeter
from workloads import Audit, Config


def test_every_unrelated_model_of_the_audit_fleet_gives_not_verified(tmp_path):
    cfg = Config()
    audit = Audit(cfg, 1, str(tmp_path), SpeedMeter())
    audit.setup()
    cycle = audit.cycle()
    assert cycle.failed == 0
    assert cycle.notes["unrelated_verified"] == f"0/{cfg.unrelated_models}"
