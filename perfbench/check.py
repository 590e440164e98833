"""Answer checks against references the program under test did not produce.

* unbanked jobs: the optimum of the min-cost-flow LP, solved by scipy's
  HiGHS over the arrays of the flow network ``repro`` builds for the job
  (so construction is shared, the solve and the energy accounting are
  not);
* the table-1 RSP operating points: the energies pinned by the paper
  differential tests;
* banked jobs: the ``repro.verify.oracles`` bank checks, run by the
  worker on the live allocation;
* cache hits: byte-for-byte the energies of the fresh answer;
* HTTP 422: every RA601 certificate must re-check against the job.

References are computed after the timed run, once per distinct job.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

import gen
from problems import batch_problems, pass_problems

#: Table-1 RSP energies at R=16 by memory divisor (activity model, seed
#: 2024, supply scaled to the divisor), as pinned by the test suite.
TABLE1_ENERGY = {1: 182.5, 2: 95.433131, 4: 65.176991}
TABLE1_TOLERANCE = 1e-5
RELATIVE_TOLERANCE = 1e-6


def lp_energy(problem) -> float | None:
    """Minimum energy by HiGHS over the job's flow network; ``None`` if
    the LP is infeasible."""
    from repro.core.network_builder import build_network

    built = build_network(problem)
    network = built.network
    arrays = network.arrays()
    nodes, arcs = network.num_nodes, network.num_arcs
    columns = np.arange(arcs)
    incidence = sparse.csr_matrix(
        (
            np.concatenate([-np.ones(arcs), np.ones(arcs)]),
            (
                np.concatenate([arrays.tails, arrays.heads]),
                np.concatenate([columns, columns]),
            ),
        ),
        shape=(nodes, arcs),
    )
    supply = np.zeros(nodes)
    supply[network.node_index(built.source)] = -built.flow_value
    supply[network.node_index(built.sink)] = built.flow_value
    result = linprog(
        np.asarray(arrays.costs, dtype=float),
        A_eq=incidence,
        b_eq=supply,
        bounds=np.column_stack([arrays.lowers, arrays.capacities]).astype(float),
        method="highs",
    )
    if not result.success:
        return None
    return problem.constant_energy() + float(result.fun)


def close(answer, reference, absolute: float | None = None) -> bool:
    if answer is None or reference is None:
        return False
    limit = absolute if absolute is not None else RELATIVE_TOLERANCE * (1 + abs(reference))
    return abs(answer - reference) <= limit


class Checker:
    """Checks every recorded operation; caches one reference per job."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._references: dict[str, float | None] = {}
        self._fresh: dict[int, list] = {}
        self._built: dict[str, dict] = {}

    def reference(self, key: str, problem) -> float | None:
        if key not in self._references:
            self._references[key] = lp_energy(problem)
        return self._references[key]

    def check(self, record: dict) -> tuple[int, int, list[str]]:
        """``(jobs attempted, jobs correct, errors)`` for one operation."""
        if self.workload == "serve_mixed":
            return self._check_request(record)
        op = gen.round_for(self.workload, self.seed, record["round"])["ops"][
            record["position"]
        ]
        if op["kind"] == "batch":
            return self._check_batch(op, record["answers"])
        return self._check_pass(op, record["answers"], record["position"])

    def _check_batch(self, op: dict, answers: dict):
        errors = []
        correct = 0
        problems = batch_problems(op)
        for job, (problem, energy, solver) in enumerate(
            zip(problems, answers["energies"], answers["solvers"])
        ):
            key = json.dumps([op["blocks"][job], op["horizon"], op["registers"]])
            reference = self.reference(key, problem)
            if self.workload == "fallback_ladder" and solver != "cycle_canceling":
                errors.append(f"job {job} solved by {solver}, not cycle_canceling")
            elif not close(energy, reference):
                errors.append(f"job {job}: energy {energy} vs LP {reference}")
            else:
                correct += 1
        return len(problems), correct, errors

    def _check_pass(self, op: dict, answers: dict, position: int):
        errors = []
        correct = 0
        energies = answers["energies"]
        if op["banked"] is not None:
            errors.extend(answers["violations"])
            key = f"banked:{position}"
            if key in self._references and self._references[key] != energies:
                errors.append(f"pass {position}: banked energies changed between rounds")
            self._references[key] = energies
            correct = 0 if errors else len(energies)
            return len(energies), correct, errors
        problems = None
        for point, (step, energy) in enumerate(zip(op["steps"], energies)):
            if op["kernel"] == "rsp" and step == 0:
                expected = TABLE1_ENERGY[op["divisor"]]
                ok = close(energy, expected, TABLE1_TOLERANCE)
            else:
                if problems is None:
                    problems = pass_problems(op)
                expected = self.reference(f"pass:{position}:{point}", problems[point])
                ok = close(energy, expected)
            if ok:
                correct += 1
            else:
                errors.append(
                    f"{op['kernel']}/d{op['divisor']} point {point}: "
                    f"energy {energy} vs reference {expected}"
                )
        return len(energies), correct, errors

    # -- serve_mixed -----------------------------------------------------
    def _workloads(self, kind: str, number: int) -> dict:
        key = f"{kind}:{number}"
        if key not in self._built:
            from repro.service.manifest import parse_manifest

            manifest = gen.serve_manifest(self.seed, kind, number)
            self._built[key] = {
                built.label: built.problem
                for built in parse_manifest(manifest).build()
            }
        return self._built[key]

    def _check_request(self, record: dict):
        kind, number, status = record["kind"], record["manifest"], record["status"]
        jobs = gen.SERVE_JOBS
        if kind == "bad":
            return jobs, *self._check_rejection(number, record)
        if status != 200:
            return jobs, 0, [f"{kind} manifest {number}: HTTP {status} {record.get('error')}"]
        problems = self._workloads("fresh", number)
        errors = []
        energies = []
        for job_id, job_status, cached, energy in record["jobs"]:
            energies.append(energy)
            if job_status != "ok":
                errors.append(f"{job_id}: status {job_status}")
            elif kind == "hit" and not cached:
                errors.append(f"{job_id}: resent manifest not served from cache")
            elif not close(energy, self.reference(f"serve:{job_id}", problems[job_id])):
                errors.append(f"{job_id}: energy {energy} vs LP reference")
        if kind == "fresh":
            self._fresh.setdefault(number, energies)
        elif number in self._fresh and energies != self._fresh[number]:
            errors.append(f"hit on manifest {number} differs from its fresh answer")
        if len(record["jobs"]) != jobs:
            errors.append(f"manifest {number}: {len(record['jobs'])} jobs answered")
        return jobs, (0 if errors else jobs), errors

    def _check_rejection(self, number: int, record: dict):
        from repro.lint.prove import InfeasibilityCertificate

        if record["status"] != 422:
            return 0, [f"bad manifest {number}: HTTP {record['status']}, not 422"]
        problems = self._workloads("bad", number)
        errors = []
        proofs = 0
        for job, blocking, evidences in record["runs"]:
            if not blocking:
                continue
            if not evidences:
                errors.append(f"{job}: blocking without an RA601 certificate")
            for evidence in evidences:
                certificate = InfeasibilityCertificate.from_dict(evidence)
                if certificate.check(problems[job]):
                    proofs += 1
                else:
                    errors.append(f"{job}: RA601 certificate does not check")
        if not record["rejected"] or proofs == 0:
            errors.append(f"bad manifest {number}: no checkable rejection")
        return (0 if errors else gen.SERVE_JOBS), errors
