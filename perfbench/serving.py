"""The serving session of the traced pass: ``python -m repro serve`` under
seeded mixed traffic.

The server runs on a cache prefilled with a working set of 37 seeded
configs of the cheap experiments and is warmed by one sweep over them.
Traffic is open loop: Poisson arrivals at ``HTTP_REFERENCE_RPS``; 19 of
every 20 requests are warm hits, every 20th a never-seen config that the
server turns into a 202 job.  Every answer is checked.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from . import common
from .common import (
    CHEAP_EXPERIMENTS,
    NPROC,
    BenchError,
    canonical,
    child_env,
    fresh_dir,
    mask_warm_body,
    python_child,
    repro_cli,
    report_identity,
    run_child,
)
from .loadgen import Client, Request, Sample, poisson_schedule
from .workloads import Result

#: Open-loop reference rate (requests/s) and share of never-seen configs.
HTTP_REFERENCE_RPS = 70.0
HTTP_COLD_SHARE = 0.05
#: Working set: this many seeded configs per cheap seeded experiment (+fig8).
CONFIGS_PER_EXPERIMENT = 6
ZIPF_EXPONENT = 1.0
SERVER_START_TIMEOUT_S = 60.0
#: How long cold jobs may take to finish once the traffic has ended.
JOB_WAIT_TIMEOUT_S = 90.0


@dataclass
class Traffic:
    """Seeded inputs of the serving session: working set, Zipf weights,
    cold configs.  The schedule draws from its own generator seeded by the
    workload seed, so the requests are a function of the seed alone.
    """

    seed: int
    configs: list[tuple[str, dict[str, object]]]
    weights: list[float]
    seeded: list[str]

    @classmethod
    def from_seed(cls, seed: int) -> "Traffic":
        rng = random.Random(seed)
        seeded = [name for name in CHEAP_EXPERIMENTS if name != "fig8"]
        warm_seeds = rng.sample(range(1, 10**6), len(seeded) * CONFIGS_PER_EXPERIMENT)
        configs = [
            (name, {"seed": warm_seeds[i * CONFIGS_PER_EXPERIMENT + k]})
            for i, name in enumerate(seeded)
            for k in range(CONFIGS_PER_EXPERIMENT)
        ] + [("fig8", {})]
        # Every experiment draws the same share of traffic and its configs a
        # Zipf share of that, ranked in a seeded order: the experiment mix
        # (and so the work per request) must not change with the seed, since
        # runs at different seeds are compared; which configs are hot does.
        weights = [0.0] * len(configs)
        experiments = seeded + ["fig8"]
        for name in experiments:
            members = [index for index, (config_name, _params) in enumerate(configs) if config_name == name]
            rng.shuffle(members)
            zipf = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(members))]
            for index, share in zip(members, zipf):
                weights[index] = share / sum(zipf) / len(experiments)
        return cls(seed, configs, weights, seeded)

    def warm_request(self, rng: random.Random, due: float) -> Request:
        """A warm hit: a working-set config drawn by its Zipf weight."""
        index = rng.choices(range(len(self.configs)), self.weights)[0]
        name, params = self.configs[index]
        body = json.dumps({"params": params}).encode()
        return Request(due, "POST", f"/v1/experiments/{name}/run", body, ("warm", index))

    def schedule(self, duration: float) -> list[Request]:
        """Poisson arrivals; every ``1/HTTP_COLD_SHARE``-th one a never-seen config.

        Cold requests are spaced evenly in the arrival sequence and cycle
        through the cheap experiments in a seeded order, so every run of a
        session carries the same number and mix of cold jobs (random counts
        and clusters would make the warm latency swing from run to run).
        Cold configs take seeds above the working set's range, so they are
        never in the cache (a repeat is astronomically rare and would
        simply be answered warm).
        """
        rng = random.Random(f"{self.seed}/traced/{HTTP_REFERENCE_RPS:.4f}")
        every = round(1 / HTTP_COLD_SHARE)
        offset = rng.randrange(every)
        order = rng.sample(self.seeded, len(self.seeded))
        requests = []
        for position, due in enumerate(poisson_schedule(rng, HTTP_REFERENCE_RPS, duration)):
            if position % every == offset:
                name = order[(position // every) % len(order)]
                params = {"seed": rng.randrange(10**6, 2**31)}
                body = json.dumps({"params": params}).encode()
                requests.append(Request(due, "POST", f"/v1/experiments/{name}/run", body, ("cold", name, params)))
            else:
                requests.append(self.warm_request(rng, due))
        return requests


class Server:
    """``python -m repro serve`` on an ephemeral port over a prefilled cache."""

    def __init__(self, work: Path, cache: Path):
        self.work = work
        self.log = (work / "serve.out").open("wb")
        self.errors = (work / "serve.err").open("wb")
        self.proc = subprocess.Popen(
            repro_cli("serve", "--host", "127.0.0.1", "--port", "0", "--cache-dir", str(cache)),
            stdout=self.log,
            stderr=self.errors,
            env=child_env(work),
            cwd=common.ROOT,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            found = re.search(rb"http://127\.0\.0\.1:(\d+)", (self.work / "serve.out").read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"server did not start: {(self.work / 'serve.err').read_bytes()[-2000:]!r}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        try:
            common.stop_process(self.proc)
        finally:
            self.log.close()
            self.errors.close()


def serve_setup(work: Path, traffic: Traffic) -> tuple[Server, dict[int, bytes]]:
    """Prefill the working set, start the server, warm it with one sweep.

    Returns the server and each config's masked warm body (the byte
    reference later bodies must equal).
    """
    cache = fresh_dir(work / "cache")
    configs_path = work / "configs.json"
    configs_path.write_text(json.dumps(traffic.configs))
    out = work / "prefill.json"
    run_child(
        python_child("prefill", "--configs", str(configs_path), "--jobs", str(NPROC), "--cache-dir", str(cache), "--out", str(out)),
        env=child_env(work),
        work=work,
    ).check()
    prefill = dict(enumerate(json.loads(out.read_text())["reports"]))
    server = Server(work, cache)
    try:
        sweep = [
            Request(0.0, "POST", f"/v1/experiments/{name}/run", json.dumps({"params": params}).encode(), ("warm", index))
            for index, (name, params) in enumerate(traffic.configs)
        ]
        bodies = asyncio.run(_sweep(server.port, sweep))
    except BaseException:
        server.stop()
        raise
    references = {}
    for index, (status, body) in bodies.items():
        if status != 200 or canonical(report_identity(json.loads(body))) != canonical(report_identity(prefill[index])):
            server.stop()
            raise BenchError(f"warm sweep: config {traffic.configs[index]} answered {status} with other rows")
        references[index] = mask_warm_body(body)
    return server, references


async def _sweep(port: int, requests: list[Request]) -> dict[int, tuple[int, bytes]]:
    client = Client("127.0.0.1", port, 1)
    try:
        samples = await client.run_phase(requests)
    finally:
        await client.close()
    return {sample.request.tag[1]: (sample.status, sample.body) for sample in samples}


async def collect_jobs(client: Client, samples: list[Sample]) -> list[dict]:
    """Final record of every cold request's job (polled after the traffic)."""
    jobs = []
    deadline = time.monotonic() + JOB_WAIT_TIMEOUT_S
    for sample in samples:
        if sample.request.tag[0] != "cold" or sample.status not in (200, 202):
            continue
        if sample.status == 200:  # a repeated cold config, answered warm
            jobs.append({"sample": sample, "record": {"state": "done", "reports": [json.loads(sample.body)]}})
            continue
        job_id = json.loads(sample.body)["job"]["id"]
        while True:
            record = await client.get_json(f"/v1/jobs/{job_id}")
            if record["state"] in ("done", "failed", "interrupted") or time.monotonic() > deadline:
                break
            await asyncio.sleep(0.02)
        jobs.append({"sample": sample, "record": record})
    return jobs


def check_serve_outputs(result: Result, work: Path, samples: list[Sample], jobs: list[dict]) -> None:
    """Every warm body byte-identical to its reference (pinned in
    ``result.gate``); every cold job's report identical to an independent
    uncached recomputation."""
    for sample in samples:
        if sample.request.tag[0] == "warm":
            result.count(
                sample.status == 200 and result.gate.observe(f"http.{sample.request.tag[1]}", mask_warm_body(sample.body))
            )
        elif sample.status not in (200, 202):
            result.count(False)
    if not jobs:
        return
    configs_path = work / "cold-configs.json"
    configs_path.write_text(json.dumps([job["sample"].request.tag[1:] for job in jobs]))
    out = work / "verify.json"
    run_child(
        python_child("prefill", "--no-cache", "--configs", str(configs_path), "--cache-dir", str(work / "verify-cache"), "--out", str(out)),
        env=child_env(work),
        work=work,
    ).check()
    expected = json.loads(out.read_text())["reports"]
    for job, reference in zip(jobs, expected):
        record = job["record"]
        ok = record["state"] == "done" and len(record.get("reports") or []) == 1
        if ok:
            ok = canonical(report_identity(record["reports"][0])) == canonical(report_identity(reference))
            if not ok:
                result.gate.mismatches.append(f"job.{job['sample'].request.tag[1:]}")
        result.count(ok)
