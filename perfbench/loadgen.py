"""Open-loop HTTP load generator (one process, asyncio, ``nproc`` connections).

Requests are due on a precomputed, seeded Poisson schedule; a generator
task hands each one to a queue when it is due (how late that wake-up was
is the generator's own lag), and one worker per keep-alive connection
sends them.  Latency runs from the *due* time, so a stalled server also
charges the wait it imposed on the requests queued behind the stall.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass

#: A request not answered within this counts as failed (status 0).
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Request:
    due: float  # seconds after the schedule starts
    method: str
    path: str
    body: bytes = b""
    tag: object = None  # caller's label (config index, cold config, ...)

    def encode(self) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\nhost: bench\r\n"
            f"content-type: application/json\r\ncontent-length: {len(self.body)}\r\n\r\n"
        )
        return head.encode() + self.body


@dataclass
class Sample:
    request: Request
    lag: float = 0.0  # generator lateness at enqueue (s)
    slot: int = 0  # connection that carried it
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0 = transport failure / timeout
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.request.due


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Due times (s) of a Poisson process at ``rate`` over ``duration``."""
    times, now = [], rng.expovariate(rate)
    while now < duration:
        times.append(now)
        now += rng.expovariate(rate)
    return times


class Client:
    """Keep-alive HTTP/1.1 connections to one server."""

    def __init__(self, host: str, port: int, connections: int):
        self.host, self.port, self.connections = host, port, connections
        self._streams: list[tuple[asyncio.StreamReader, asyncio.StreamWriter] | None] = [None] * connections

    async def _stream(self, slot: int):
        if self._streams[slot] is None:
            self._streams[slot] = await asyncio.open_connection(self.host, self.port)
        return self._streams[slot]

    async def _drop(self, slot: int) -> None:
        stream = self._streams[slot]
        self._streams[slot] = None
        if stream is not None:
            stream[1].close()
            try:
                await stream[1].wait_closed()
            except OSError:
                pass

    async def close(self) -> None:
        for slot in range(self.connections):
            await self._drop(slot)

    async def _exchange(self, slot: int, payload: bytes) -> tuple[int, bytes]:
        reader, writer = await self._stream(slot)
        writer.write(payload)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await reader.readexactly(length)

    async def send(self, slot: int, sample: Sample) -> None:
        sample.slot, sample.sent = slot, time.monotonic()
        try:
            sample.status, sample.body = await asyncio.wait_for(
                self._exchange(slot, sample.request.encode()), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError, IndexError) as error:
            sample.status, sample.error = 0, f"{type(error).__name__}: {error}"
            await self._drop(slot)
        sample.done = time.monotonic()

    async def get_json(self, path: str) -> dict:
        sample = Sample(Request(0.0, "GET", path))
        await self.send(0, sample)
        if sample.status != 200:
            raise RuntimeError(f"GET {path} -> {sample.status} {sample.error}")
        return json.loads(sample.body)

    async def run_phase(self, requests: list[Request]) -> list[Sample]:
        """Send ``requests`` when due (seconds after now); wait for every answer."""
        queue: asyncio.Queue[Sample | None] = asyncio.Queue()
        samples = []
        origin = time.monotonic()
        for request in requests:
            request.due += origin

        async def worker(slot: int) -> None:
            while (sample := await queue.get()) is not None:
                await self.send(slot, sample)

        workers = [asyncio.ensure_future(worker(slot)) for slot in range(self.connections)]
        try:
            for request in requests:
                delay = request.due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                sample = Sample(request, lag=max(0.0, time.monotonic() - request.due))
                samples.append(sample)
                queue.put_nowait(sample)
            for _ in workers:
                queue.put_nowait(None)
            await asyncio.gather(*workers)
        finally:
            for task in workers:
                task.cancel()
        return samples
