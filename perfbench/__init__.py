"""The repository benchmark: offline paper replay and a served HTTP fleet.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
