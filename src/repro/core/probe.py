"""The active-measurement pipeline (paper Figure 1).

For each target domain ``d``:

1. **Find the parent's authoritative nameservers** by walking referrals
   from the root toward ``d``.
2. The walk ends when a parent-zone server **returns a referral** naming
   ``d`` itself — that referral's NS set is *P*, the parent's view.  An
   authoritative empty answer (NXDOMAIN/NODATA) means the delegation is
   gone; silence from every server of the enclosing zone means the
   parent itself is unreachable.
3. **Query d's own nameservers** (those named in *P*) for d's NS
   records; authoritative answers contribute *C*, the child's view.
4. **Sweep every IPv4 address** of every nameserver in *P ∪ C* with the
   same NS query, recording each address's outcome — the raw material
   for the defective-delegation and consistency analyses.

A **second round** re-queries domains whose parent listed nameservers
but none answered, shortly after the first (paper §III-B), to absorb
transient failures.

Scale architecture
------------------

The paper swept ~147k domains; issuing those queries one blocking
exchange at a time makes the campaign's simulated duration the *sum* of
every round-trip and timeout.  This module instead runs each domain's
pipeline as a cooperatively-scheduled task over the network's
discrete-event scheduler (:mod:`repro.net.events`):

* Up to ``ProbeConfig.max_in_flight`` query series are outstanding at
  once, across domains (overlapping referral walks) and within each
  per-IP sweep, so concurrent waits overlap in virtual time — campaign
  time approaches the max of the overlapping waits, not their sum.
* Issue order is deterministic: tasks are admitted in sorted-domain
  order, resumed in event order, and scanned oldest-first for the next
  issuable query.  The :class:`~repro.core.ethics.RateLimiter` is
  charged per series at issue, and per-destination politeness never
  allows two in-flight exchanges to the same address.
* ``max_in_flight=1`` degenerates to running each task to completion
  before the next starts, reproducing the historical strictly-serial
  prober exchange-for-exchange (same RNG draw order, same dataset).
* A shared :class:`~repro.dns.cache.ZoneCutCache` remembers every
  referral seen, so walks start at the deepest cached cut instead of
  re-descending from the root for all 147k targets.  The cache is
  advisory: the referral naming the domain itself — the measurement —
  is always fetched from the wire.
"""

from __future__ import annotations

import gc
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..dns.cache import ResolverCache, ZoneCutCache
from ..dns.message import Message, Rcode, make_query
from ..dns.name import DnsName
from ..dns.rdata import RRType, A
from ..dns.resolver import Resolver
from ..inet.address import IPv4Address
from ..net.events import PendingExchange
from ..net.network import Network
from .dataset import (
    MeasurementDataset,
    ParentStatus,
    ProbeResult,
    ServerOutcome,
    ServerProbe,
)
from .ethics import RateLimiter
from .journal import CampaignJournal, campaign_digest

__all__ = ["ActiveProber", "ProbeConfig"]

_MAX_WALK = 16

# Task protocol: a probe task is a generator that yields requests to the
# campaign driver and is resumed with the request's result.
#   ("query", address)                   -> resumed with Optional[Message]
#   ("sweep", result, hostnames, glue)   -> resumed with None when drained
_ProbeTask = Generator[Tuple[Any, ...], Any, Any]


class ProbeConfig:
    """Tunables for the campaign."""

    def __init__(
        self,
        timeout: float = 3.0,
        retries: int = 1,
        retry_round: bool = True,
        retry_interval_days: float = 1.0,
        rate_limit_qps: Optional[float] = 500.0,
        max_in_flight: int = 64,
        zone_cut_caching: bool = True,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_interval_days <= 0:
            raise ValueError(
                f"retry_interval_days must be positive, got "
                f"{retry_interval_days}"
            )
        if rate_limit_qps is not None and rate_limit_qps <= 0:
            raise ValueError(
                f"rate_limit_qps must be positive or None, got "
                f"{rate_limit_qps}"
            )
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be at least 1, got {max_in_flight}"
            )
        self.timeout = timeout
        self.retries = retries
        self.retry_round = retry_round
        self.retry_interval_days = retry_interval_days
        self.rate_limit_qps = rate_limit_qps
        self.max_in_flight = max_in_flight
        self.zone_cut_caching = zone_cut_caching

    def identity(self) -> Dict[str, Any]:
        """JSON-able summary for the journal's campaign digest."""
        return {
            "timeout": self.timeout,
            "retries": self.retries,
            "retry_round": self.retry_round,
            "retry_interval_days": self.retry_interval_days,
            "rate_limit_qps": self.rate_limit_qps,
            "max_in_flight": self.max_in_flight,
            "zone_cut_caching": self.zone_cut_caching,
        }


class _SweepBatch:
    """A per-IP sweep in progress: the lazy cursor over (hostname,
    address) pairs still to be queried, plus the in-flight count.

    Hostnames are resolved on admission (exactly when the serial code
    would have resolved them), and the needs-a-query check runs at
    issue time, so a batch driven with one slot reproduces the serial
    sweep operation-for-operation.
    """

    __slots__ = ("result", "work", "glue", "current", "outstanding", "exhausted")

    def __init__(
        self,
        result: ProbeResult,
        hostnames: Iterable[DnsName],
        glue: Dict[DnsName, Tuple[IPv4Address, ...]],
    ) -> None:
        self.result = result
        self.work: Deque[DnsName] = deque(hostnames)
        self.glue = glue
        self.current: Deque[Tuple[ServerProbe, IPv4Address]] = deque()
        self.outstanding = 0
        self.exhausted = False


class _Task:
    """One admitted probe task and its driver-side bookkeeping."""

    __slots__ = ("index", "gen", "message", "queries", "pending_addr", "batch")

    def __init__(self, index: int, gen: _ProbeTask, message: Message) -> None:
        self.index = index
        self.gen = gen
        self.message = message
        self.queries = 0
        self.pending_addr: Optional[IPv4Address] = None
        self.batch: Optional[_SweepBatch] = None


class _Series:
    """One query series in flight: the first attempt plus its
    retransmissions.

    The network holds the bound :meth:`complete` while an exchange is
    pending; nothing the series references points back at it, so a
    finished series dies by refcount.  A retransmit closure and a
    completion closure that name each other would instead make every
    series a reference cycle, garbage only the cycle collector can free.
    """

    __slots__ = ("driver", "task", "address", "on_final", "attempts_left")

    def __init__(
        self,
        driver: "_CampaignDriver",
        task: _Task,
        address: IPv4Address,
        on_final: Callable[[Optional[Message]], None],
    ) -> None:
        self.driver = driver
        self.task = task
        self.address = address
        self.on_final = on_final
        self.attempts_left = driver._attempts

    def send(self) -> None:
        driver = self.driver
        driver._network.send(
            self.address,
            self.task.message,
            source=driver._prober._source,
            timeout=driver._timeout,
            on_complete=self.complete,
        )

    def complete(self, exchange: PendingExchange) -> None:
        driver = self.driver
        self.attempts_left -= 1
        if exchange.response is None and self.attempts_left > 0:
            # Retransmit at the timeout instant, reusing the
            # already-built query message: a direct re-send, no extra
            # scheduler event.
            driver._prober.retransmits += 1
            self.send()
            return
        address = self.address
        driver._in_flight -= 1
        driver._busy.discard(address)
        driver._wake_stalled(address)
        self.on_final(exchange.response)


class _CampaignDriver:
    """Drives probe tasks over the event scheduler.

    One driver instance runs one fleet of tasks to completion.  Its
    loop enforces a strict priority — resume ready tasks, then issue
    the next query from the oldest issuable source, then admit a new
    task, then fire the next event — which makes the interleaving a
    pure function of the task list and the seed.
    """

    def __init__(self, prober: "ActiveProber") -> None:
        self._prober = prober
        self._window = prober.config.max_in_flight
        self._network = prober._network
        self._scheduler = prober._network.events
        self._attempts = 1 + prober.config.retries
        self._timeout = prober.config.timeout
        self._busy: Set[IPv4Address] = set()
        self._ready: Deque[Tuple[_Task, Any]] = deque()
        self._active: List[_Task] = []
        # Tasks with a parked request or live sweep batch that may be
        # able to issue right now, in park/wake order.
        self._issuable: Deque[_Task] = deque()
        # Tasks whose next destination is busy, indexed by that
        # address; woken (re-queued issuable) when it frees.  Busy-set
        # transitions happen only at issue and completion, so no other
        # event can unblock a stalled task.
        self._stalled: Dict[IPv4Address, List[_Task]] = {}
        self._in_flight = 0
        self._finished: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def run(
        self, tasks: Iterable[Tuple[_ProbeTask, Message]]
    ) -> List[Tuple[Any, int]]:
        """Run every task to completion; returns ``(result, queries)``
        pairs in admission order."""
        admissions: Deque[Tuple[int, _ProbeTask, Message]] = deque(
            (index, gen, message)
            for index, (gen, message) in enumerate(tasks)
        )
        total = len(admissions)
        while True:
            if self._ready:
                task, value = self._ready.popleft()
                self._step(task, value)
                continue
            if self._in_flight < self._window and self._try_issue():
                continue
            if (
                self._in_flight < self._window
                and len(self._active) < self._window
                and admissions
            ):
                index, gen, message = admissions.popleft()
                task = _Task(index, gen, message)
                self._active.append(task)
                self._step(task, None)
                continue
            if self._in_flight > 0:
                self._scheduler.run_next()
                continue
            break
        assert len(self._finished) == total and not self._active
        return [self._finished[index] for index in range(total)]

    # ------------------------------------------------------------------
    def _step(self, task: _Task, value: Any) -> None:
        """Advance a task's generator until it parks on a request."""
        try:
            request = task.gen.send(value)
        except StopIteration as stop:
            self._finished[task.index] = (stop.value, task.queries)
            self._active.remove(task)
            return
        if request[0] == "query":
            task.pending_addr = request[1]
        else:
            task.batch = _SweepBatch(request[1], request[2], request[3])
        self._issuable.append(task)

    def _try_issue(self) -> bool:
        """Issue one query from the oldest wakeable source.

        A source whose next destination already has an exchange in
        flight parks on that address (per-destination politeness) and
        is re-queued when it frees; a drained sweep batch resumes its
        task.
        """
        issuable = self._issuable
        while issuable:
            task = issuable.popleft()
            if task.pending_addr is not None:
                address = task.pending_addr
                if address in self._busy:
                    self._stalled.setdefault(address, []).append(task)
                    continue
                task.pending_addr = None
                self._issue_walk(task, address)
                return True
            batch = task.batch
            if batch is None:
                # The batch's last in-flight query completed it while
                # the task sat queued; the completion already resumed
                # it.
                continue
            unit = self._next_sweep_unit(batch)
            if unit[0] == "issue":
                # Stay at the queue head: the batch keeps issuing until
                # it stalls or drains.
                issuable.appendleft(task)
                self._issue_sweep(task, batch, unit[1], unit[2])
                return True
            if unit[0] == "stall":
                self._stalled.setdefault(unit[1], []).append(task)
                continue
            if batch.outstanding == 0:
                task.batch = None
                self._ready.append((task, None))
                return True
            # Exhausted with queries still in flight: the last
            # completion will resume the task.
        return False

    def _wake_stalled(self, address: IPv4Address) -> None:
        waiting = self._stalled.pop(address, None)
        if waiting:
            self._issuable.extend(waiting)

    def _next_sweep_unit(self, batch: _SweepBatch) -> Tuple[Any, ...]:
        """Advance the batch cursor: ``("issue", probe, address)``,
        ``("stall", address)``, or ``("done",)``.  Hostnames resolve on
        admission, exactly when the serial sweep would resolve them."""
        prober = self._prober
        while True:
            if batch.current:
                probe, address = batch.current[0]
                existing = probe.outcomes.get(address)
                if (
                    existing is not None
                    and existing not in ServerOutcome.SOFT_FAILURES
                ):
                    batch.current.popleft()
                    continue
                if address in self._busy:
                    return "stall", address
                batch.current.popleft()
                return "issue", probe, address
            if not batch.work:
                batch.exhausted = True
                return ("done",)
            hostname = batch.work.popleft()
            probe = batch.result.servers.get(hostname)
            if probe is None:
                resolvable, addresses = prober._resolve_ns_addresses(
                    hostname, batch.glue
                )
                probe = ServerProbe(
                    hostname=hostname,
                    resolvable=resolvable,
                    addresses=addresses,
                )
                batch.result.servers[hostname] = probe
            for address in probe.addresses:
                batch.current.append((probe, address))

    # ------------------------------------------------------------------
    def _issue_series(
        self,
        task: _Task,
        address: IPv4Address,
        on_final: Callable[[Optional[Message]], None],
    ) -> None:
        """Issue one query series (first attempt plus retransmissions)
        and call ``on_final`` with the eventual response (or None)."""
        prober = self._prober
        if prober._limiter is not None:
            prober._limiter.acquire()
        prober.queries_sent += 1
        task.queries += 1
        self._in_flight += 1
        self._busy.add(address)
        _Series(self, task, address, on_final).send()

    def _issue_walk(self, task: _Task, address: IPv4Address) -> None:
        def on_final(response: Optional[Message]) -> None:
            self._ready.append((task, response))

        self._issue_series(task, address, on_final)

    def _issue_sweep(
        self,
        task: _Task,
        batch: _SweepBatch,
        probe: ServerProbe,
        address: IPv4Address,
    ) -> None:
        batch.outstanding += 1

        def on_final(response: Optional[Message]) -> None:
            batch.outstanding -= 1
            self._prober._record_sweep_outcome(
                probe, address, batch.result.domain, response
            )
            if batch.exhausted and batch.outstanding == 0 and task.batch is batch:
                task.batch = None
                self._ready.append((task, None))

        self._issue_series(task, address, on_final)


class ActiveProber:
    """Runs the Figure-1 pipeline against a network."""

    def __init__(
        self,
        network: Network,
        root_addresses: Iterable[IPv4Address],
        source: IPv4Address,
        config: Optional[ProbeConfig] = None,
        journal: Optional[CampaignJournal] = None,
    ) -> None:
        self.config = config if config is not None else ProbeConfig()
        self._network = network
        self._clock = network.clock
        self._source = source
        self._journal = journal
        self._cache = ResolverCache(self._clock)
        self._zone_cuts = (
            ZoneCutCache(self._clock)
            if self.config.zone_cut_caching
            else None
        )
        self._resolver = Resolver(
            network,
            list(root_addresses),
            cache=self._cache,
            source=source,
            timeout=self.config.timeout,
            retries=self.config.retries,
            zone_cuts=self._zone_cuts,
        )
        self._limiter = (
            RateLimiter(self._clock, queries_per_second=self.config.rate_limit_qps)
            if self.config.rate_limit_qps
            else None
        )
        self.queries_sent = 0
        self.warm_queries = 0
        self.retransmits = 0

    @property
    def zone_cuts(self) -> Optional[ZoneCutCache]:
        """The shared delegation cache (None when disabled)."""
        return self._zone_cuts

    # ------------------------------------------------------------------
    # Step 1/2: locate the parent's nameservers, get the referral
    # ------------------------------------------------------------------
    def _walk_to_parent_task(self, domain: DnsName) -> _ProbeTask:
        """Walk referrals until the parent zone answers for ``domain``.

        Starts from the deepest cached zone cut when one is known.  A
        cached cut is trusted for its TTL even when its servers stay
        silent — re-walking from the root would reach the same
        delegation (and hammer the same dead servers, which §III-D's
        politeness forbids); the one exception is a cut that yields no
        queryable address at all, which falls back to a cold walk.
        """
        if self._zone_cuts is not None:
            cut = self._zone_cuts.deepest_enclosing(domain)
            if cut is not None:
                outcome = yield from self._walk_from_task(
                    list(cut.addresses()), list(cut.glueless()), domain
                )
                status, hostnames, glue, issued = outcome
                if status != ParentStatus.NO_RESPONSE or issued > 0:
                    return status, hostnames, glue
                self._zone_cuts.invalidate(cut.name)
        outcome = yield from self._walk_from_task(
            list(self._resolver.roots), [], domain
        )
        return outcome[0], outcome[1], outcome[2]

    def _walk_from_task(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        domain: DnsName,
    ) -> Generator[
        Tuple[Any, ...],
        Any,
        Tuple[str, Tuple[DnsName, ...], Dict[DnsName, Tuple[IPv4Address, ...]], int],
    ]:
        issued = 0
        for _ in range(_MAX_WALK):
            response = None
            queue = list(candidates)
            pending = list(glueless)
            while queue or pending:
                if not queue:
                    hostname = pending.pop(0)
                    queue.extend(self._resolver.resolve_address(hostname))
                    continue
                address = queue.pop(0)
                issued += 1
                reply = yield ("query", address)
                if reply is None:
                    continue
                if reply.rcode in (Rcode.REFUSED, Rcode.SERVFAIL):
                    continue
                if reply.is_upward_referral:
                    continue
                response = reply
                break
            if response is None:
                return ParentStatus.NO_RESPONSE, (), {}, issued

            if response.is_referral:
                target = response.referral_target
                assert target is not None
                delegation = response.authority_rrset(RRType.NS)
                assert delegation is not None
                hostnames = tuple(
                    rdata.nsdname  # type: ignore[union-attr]
                    for rdata in delegation.rdatas
                )
                glue: Dict[DnsName, Tuple[IPv4Address, ...]] = {}
                ttl = delegation.ttl
                for hostname in hostnames:
                    addresses = []
                    for glue_set in response.glue_for(hostname):
                        ttl = min(ttl, glue_set.ttl)
                        for rdata in glue_set.rdatas:
                            assert isinstance(rdata, A)
                            addresses.append(rdata.address)
                    if addresses:
                        glue[hostname] = tuple(addresses)
                if self._zone_cuts is not None:
                    self._zone_cuts.put(target, hostnames, glue, ttl)
                if target == domain:
                    # The parent's answer about our domain: this is P.
                    return ParentStatus.REFERRAL, hostnames, glue, issued
                # An intermediate cut: descend.
                candidates = [a for addrs in glue.values() for a in addrs]
                glueless = [h for h in hostnames if h not in glue]
                continue

            if response.aa:
                answer = response.answer_rrset(RRType.NS)
                if answer is not None:
                    # Parent and child co-hosted: the "parent" server is
                    # also authoritative for the domain and answers
                    # directly instead of referring.
                    hostnames = tuple(
                        rdata.nsdname  # type: ignore[union-attr]
                        for rdata in answer.rdatas
                    )
                    return ParentStatus.ANSWER, hostnames, {}, issued
                return ParentStatus.EMPTY, (), {}, issued

            return ParentStatus.NO_RESPONSE, (), {}, issued
        return ParentStatus.NO_RESPONSE, (), {}, issued

    # ------------------------------------------------------------------
    # Steps 3-4: child view and per-address sweep
    # ------------------------------------------------------------------
    def _resolve_ns_addresses(
        self,
        hostname: DnsName,
        glue: Dict[DnsName, Tuple[IPv4Address, ...]],
    ) -> Tuple[bool, Tuple[IPv4Address, ...]]:
        if hostname in glue:
            return True, glue[hostname]
        if len(hostname) == 1:
            # Single-label nameserver names (the dropped-origin typo)
            # cannot be resolved meaningfully.
            return False, ()
        addresses = self._resolver.resolve_address(hostname)
        return (len(addresses) > 0), addresses

    @staticmethod
    def _classify(response: Optional[Message], domain: DnsName) -> str:
        if response is None:
            return ServerOutcome.TIMEOUT
        if response.rcode == Rcode.REFUSED:
            return ServerOutcome.REFUSED
        if response.rcode == Rcode.SERVFAIL:
            return ServerOutcome.SERVFAIL
        if response.is_upward_referral:
            return ServerOutcome.UPWARD
        if response.rcode == Rcode.NXDOMAIN and response.aa:
            return ServerOutcome.NXDOMAIN
        if response.aa:
            if response.answer_rrset(RRType.NS) is not None:
                return ServerOutcome.ANSWER
            return ServerOutcome.NODATA
        return ServerOutcome.LAME

    def _record_sweep_outcome(
        self,
        probe: ServerProbe,
        address: IPv4Address,
        domain: DnsName,
        response: Optional[Message],
    ) -> None:
        outcome = self._classify(response, domain)
        probe.outcomes[address] = outcome
        if outcome == ServerOutcome.ANSWER:
            answer = response.answer_rrset(RRType.NS)  # type: ignore[union-attr]
            assert answer is not None
            probe.ns_by_address[address] = tuple(
                rdata.nsdname  # type: ignore[union-attr]
                for rdata in answer.rdatas
            )

    def _collect_child_view(self, result: ProbeResult) -> None:
        """Union of NS sets returned authoritatively by the domain's own
        servers (the C of §IV-D)."""
        seen: Dict[DnsName, None] = {}
        for server in result.servers.values():
            for ns_set in server.ns_by_address.values():
                for hostname in ns_set:
                    seen.setdefault(hostname, None)
        result.child_ns = tuple(seen)

    # ------------------------------------------------------------------
    # Per-domain pipeline (one cooperatively-scheduled task)
    # ------------------------------------------------------------------
    def _domain_task(self, domain: DnsName, iso2: str) -> _ProbeTask:
        walk = yield from self._walk_to_parent_task(domain)
        parent_status, parent_ns, glue = walk
        result = ProbeResult(
            domain=domain,
            iso2=iso2,
            parent_status=parent_status,
            parent_ns=parent_ns,
        )
        if parent_status in (ParentStatus.REFERRAL, ParentStatus.ANSWER):
            yield ("sweep", result, parent_ns, glue)
            self._collect_child_view(result)
            new_hostnames = [
                h for h in result.child_ns if h not in result.servers
            ]
            if new_hostnames:
                yield ("sweep", result, new_hostnames, glue)
                self._collect_child_view(result)
        return result

    # Round-one verdicts the retry round clears before re-querying.
    # TIMEOUT is an observation of *our* silence; SERVFAIL is the
    # server reporting transient inability (an upstream outage, an
    # expired zone transfer) — both are transient-failure-shaped,
    # unlike REFUSED/UPWARD/LAME, which are configuration statements a
    # day does not change.  The cleared verdicts are preserved in
    # ``prior_outcomes`` so the analyses can tell two-round silence
    # (confirmed-dead) from one-round silence.
    _RETRY_CLEARED = frozenset({ServerOutcome.TIMEOUT, ServerOutcome.SERVFAIL})

    def _retry_task(self, result: ProbeResult) -> _ProbeTask:
        for server in result.servers.values():
            # Drop transient-shaped verdicts so the sweep re-queries.
            for address, outcome in list(server.outcomes.items()):
                if outcome in self._RETRY_CLEARED:
                    server.prior_outcomes[address] = outcome
                    del server.outcomes[address]
            if not server.addresses:
                # Round one cached an empty address set (e.g. a glueless
                # NS whose zone was transiently dead).  Re-resolve so
                # the server can recover in round two instead of being
                # forever unresolvable.
                resolvable, addresses = self._resolve_ns_addresses(
                    server.hostname, {}
                )
                if addresses:
                    server.resolvable = resolvable
                    server.addresses = addresses
        yield ("sweep", result, list(result.servers), {})
        self._collect_child_view(result)
        result.retried = True

    # ------------------------------------------------------------------
    # Cache warm-up
    # ------------------------------------------------------------------
    def _warm_task(self, parent: DnsName) -> Generator[Tuple[Any, ...], Any, None]:
        yield from self._walk_to_parent_task(parent)
        return None

    def _warm_zone_cuts(self, order: List[DnsName]) -> None:
        """Deterministically populate and freeze the zone-cut cache.

        Before round one, walk every distinct parent name of the target
        list (sorted, so admission order is canonical) and cache each
        referral seen, then :meth:`~repro.dns.cache.ZoneCutCache.freeze`
        the cache.  After this, every domain's walk starts from a cut
        that is a pure function of the domain and the world — not of
        which domains were probed earlier, in what order, or in which
        process.  That is the property the sharded campaign runner needs
        for the merged dataset digest to be identical for any shard
        count: shard-local warming covers the same ancestor chains
        (every ancestor of a target lies on its own parent's walk), so
        all shard layouts freeze equivalent views of each target's
        enclosing cuts.

        Warm queries honour the rate limiter and are charged to the
        prober's campaign total (they are real politeness-relevant
        traffic, tracked separately in ``warm_queries``) but to no
        domain's ``queries_sent`` — the measurement dataset never sees
        them.
        """
        assert self._zone_cuts is not None
        parents = sorted(
            {domain.parent() for domain in order if len(domain) >= 2}
        )
        if parents:
            driver = _CampaignDriver(self)
            warmed = driver.run(
                [
                    (self._warm_task(parent), make_query(parent, RRType.NS))
                    for parent in parents
                ]
            )
            self.warm_queries += sum(queries for _, queries in warmed)
        self._zone_cuts.freeze()

    # ------------------------------------------------------------------
    # Campaign entry points
    # ------------------------------------------------------------------
    def probe_domain(self, domain: DnsName, iso2: str = "") -> ProbeResult:
        driver = _CampaignDriver(self)
        message = make_query(domain, RRType.NS)
        probed = driver.run([(self._domain_task(domain, iso2), message)])
        result: ProbeResult = probed[0][0]
        result.queries_sent = probed[0][1]
        return result

    def probe_all(
        self,
        targets: Dict[DnsName, str],
    ) -> MeasurementDataset:
        """Run the campaign over {domain → ISO2}.

        The retry round (paper §III-B) re-runs the sweep for domains
        whose parent listed nameservers but none answered, after a
        short simulated delay.

        With a :class:`~repro.core.journal.CampaignJournal` attached,
        every network exchange and completed result is journaled; a
        resumed journal transparently replays the killed prefix before
        going live (see :mod:`repro.core.journal`).
        """
        journal = self._journal
        if journal is not None:
            chaos = self._network.chaos
            journal.begin(
                self._network,
                campaign_digest(
                    targets,
                    self.config.identity(),
                    chaos.name if chaos is not None else None,
                ),
            )
            self._network.journal = journal
        # The campaign allocates no reference cycles (messages, rrsets,
        # frames and :class:`_Series` die by refcount), so the collector
        # is paused for the loop, then one young-generation collection
        # scans only what the probe allocated (DESIGN.md, "Heap
        # discipline").
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            dataset = self._probe_all_inner(targets, journal)
        except BaseException:
            # Abort path (including the kill-at-event harness): close
            # without a final checkpoint — every line already written
            # was flushed, which is all a killed process would have.
            if journal is not None:
                journal.close()
            raise
        else:
            if journal is not None:
                journal.finish(self._network)
            return dataset
        finally:
            if gc_was_enabled:
                gc.collect(1)
                gc.enable()
            self._network.journal = None

    def _probe_all_inner(
        self,
        targets: Dict[DnsName, str],
        journal: Optional[CampaignJournal],
    ) -> MeasurementDataset:
        order = sorted(targets)
        if self._zone_cuts is not None:
            self._warm_zone_cuts(order)
        driver = _CampaignDriver(self)
        probed = driver.run(
            [
                (
                    self._domain_task(domain, targets[domain]),
                    make_query(domain, RRType.NS),
                )
                for domain in order
            ]
        )
        results: Dict[DnsName, ProbeResult] = {}
        for domain, (result, queries) in zip(order, probed):
            result.queries_sent = queries
            results[domain] = result

        needs_retry: List[ProbeResult] = []
        if self.config.retry_round:
            needs_retry = [
                r
                for r in results.values()
                if r.parent_nonempty and not r.responsive
            ]
        if journal is not None:
            # Round-one results are final unless the retry round will
            # mutate them; those are journaled after the retry.
            retry_domains = {r.domain for r in needs_retry}
            for domain in order:
                if domain not in retry_domains:
                    journal.record_result(self._network, results[domain])
        if needs_retry:
            self._clock.advance(
                self.config.retry_interval_days * 86_400
            )
            retry_driver = _CampaignDriver(self)
            retry_driver.run(
                [
                    (
                        self._retry_task(result),
                        make_query(result.domain, RRType.NS),
                    )
                    for result in needs_retry
                ]
            )
            if journal is not None:
                for result in needs_retry:
                    journal.record_result(self._network, result)
        return MeasurementDataset(results)
