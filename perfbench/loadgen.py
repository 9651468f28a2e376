"""Seeded inputs for the perfbench workloads.

Everything a run feeds the system comes from here and depends only on
the seed: the query streams of the two serve workloads, and the
annotation batches and reads of `annotate-cycle`. The corpora are fixed
(`CORPUS_SEED`; XMark uses its generator's canonical seed), so that the
seed varies the operations and not the data they run on: the cost of
some queries depends on the particular corpus. The generator is a
SplitMix64 of our own, so a seed means the same bytes on every Python
version.

`CycleModel` is also the answer checker of `annotate-cycle`: it tracks
the corpus through every acknowledged batch and predicts each count a
read returns.
"""

import bisect

MASK = (1 << 64) - 1
XMARK_SEED = 20060630  # the XMark generator's canonical seed
CORPUS_SEED = 20060630
XMARK_URI = "xmark"
CORPUS_URI = "corpus"


class Rng:
    """SplitMix64."""

    def __init__(self, seed, stream=0):
        self.state = (seed * 0x9E3779B97F4A7C15 + stream * 0xD1B54A32D192ED03) & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def pick(self, items):
        return items[self.below(len(items))]


def frame(payload):
    """One `<len>\\n<payload>` frame, the protocol's request framing."""
    body = payload.encode()
    return b"%d\n" % len(body) + body


# ---- the serve workloads ----


def person_query(person):
    """Paper Q1 shaped lookup of one person."""
    return (
        f'for $b in doc("{XMARK_URI}")/site/select-narrow::people'
        f'/select-narrow::person[@id = "person{person}"] '
        f"return $b/select-narrow::name"
    )


def person_twin(person):
    """The same lookup on the standard document, as a count."""
    return f'count(doc("{XMARK_URI}")/site/people/person[@id = "person{person}"]/name)'


# The paper's StandOff XMark queries (Figure 5 rewrite rule: child and
# descendant steps become select-narrow) plus a select-wide probe whose
# node() target leaves nothing to push down into the join: every region
# of the document is a candidate.
FIG6_QUERIES = {
    "q1": f'for $b in doc("{XMARK_URI}")/site/select-narrow::people'
    f'/select-narrow::person[@id = "person0"] return $b/select-narrow::name',
    "q2": f'for $b in doc("{XMARK_URI}")//site/select-narrow::open_auctions'
    f"/select-narrow::open_auction return <increase> {{ "
    f"$b/select-narrow::bidder[1]/select-narrow::increase }} </increase>",
    "q6": f'for $b in doc("{XMARK_URI}")//site/select-narrow::regions '
    f"return count($b/select-narrow::item)",
    "q7": f'for $p in doc("{XMARK_URI}")/site return count($p/select-narrow::description) '
    f"+ count($p/select-narrow::annotation) + count($p/select-narrow::emailaddress)",
    "wide": f'count(doc("{XMARK_URI}")/site/select-narrow::open_auctions'
    f'/select-narrow::open_auction[@id = "open_auction0"]/select-wide::node())',
}

# The standard-document twins the StandOff answers are checked against,
# evaluated through the tree (staircase) path. Each maps to a function
# of the StandOff reply that must equal the twin's answer.
FIG6_TWINS = {
    "q1": (f'count(doc("{XMARK_URI}")/site/people/person[@id = "person0"]/name)',
           lambda reply: str(reply.count("<name "))),
    "q2": (f'count(doc("{XMARK_URI}")/site/open_auctions/open_auction)',
           lambda reply: str(reply.count("<increase>") + reply.count("<increase/>"))),
    # Per auction: a positional predicate inside a longer tree path,
    # `open_auction/bidder[1]`, selects one bidder in all instead of one
    # per auction in the tree path at this commit.
    "q2-increase": (f'count(for $b in doc("{XMARK_URI}")/site/open_auctions/open_auction '
                    f"return $b/bidder[1]/increase)",
                    lambda reply: str(reply.count("<increase start="))),
    "q6": (f'for $b in doc("{XMARK_URI}")//site/regions return count($b//item)',
           lambda reply: reply),
    "q7": (f'for $p in doc("{XMARK_URI}")/site return count($p//description) '
           f"+ count($p//annotation) + count($p//emailaddress)",
           lambda reply: reply),
    "wide": (f'count(doc("{XMARK_URI}")//open_auction[@id = "open_auction0"]/ancestor-or-self::* '
             f'| doc("{XMARK_URI}")//open_auction[@id = "open_auction0"]//*)',
             lambda reply: reply),
}

# Mix weights, in order of latency: the median falls near the middle of
# the q6 band (25-83%), the 99th percentile inside the q2 band
# (83-100%), so neither sits on a boundary between two queries'
# latencies, where a small shift of either moves the percentile a lot.
FIG6_MIX = [("q7", 1), ("wide", 1), ("q1", 1), ("q6", 7), ("q2", 2)]


def call_fresh_stream(seed, persons):
    """Endless `query` payloads: a seeded person id per request."""
    rng = Rng(seed, 1)
    while True:
        yield "query\n" + person_query(rng.below(persons))


def session_stream(seed):
    """Endless `query` payloads: a seeded mix of the Figure 6 queries."""
    rng = Rng(seed, 2)
    bag = [name for name, weight in FIG6_MIX for _ in range(weight)]
    while True:
        yield "query\n" + FIG6_QUERIES[rng.pick(bag)]


# ---- annotate-cycle ----

SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "an", "el", "or", "us", "pe", "di"]
CLASSES = ["PER", "LOC", "ORG"]
POS_TAGS = ["NOUN", "VERB", "ADJ", "ADP"]
JOURNAL_BATCHES = 4  # journaled batches per cycle, before the checkpoint
TOKEN_SPLITS = 3  # retract one token, insert its two halves (3 ops each)
TOKEN_MERGES = 3  # retract two neighbours, insert one token over both (3 ops each)
ENTITY_MOVES = 7  # retract one entity, insert a new span (2 ops each; 32 ops in all)


class CycleModel:
    """The token/entity corpus and what every acknowledged batch did to it.

    Tokens are `w` elements over a base text; entities are multi-token
    `entity` spans with a `class`. Each batch is a tokenizer stage that
    splits and merges tokens (new tokens carry a `pos` attribute) and a
    tagger stage that moves entities (retract one, insert a new span).
    Splits balance merges, so the corpus keeps its size from cycle to
    cycle. No annotation is touched twice between two compactions, so
    no batch re-tags one (retracts and re-inserts the same key): at this
    commit a checkpoint loses such an update. `run.py` probes that
    defect separately and counts the probe as a failed operation while
    the defect is there.
    """

    def __init__(self, seed, tokens=80_000, entities=3_500, corpus_seed=CORPUS_SEED):
        self.rng = Rng(corpus_seed, 3)
        words = []
        pos = 0
        self.starts = []  # token starts, sorted; tokens never overlap
        self.tokens = {}  # start -> [end, pos tag or None]
        for _ in range(tokens):
            word = "".join(self.rng.pick(SYLLABLES) for _ in range(1 + self.rng.below(3)))
            words.append(word)
            self.starts.append(pos)
            self.tokens[pos] = [pos + len(word) - 1, None]
            pos += len(word) + 1
        self.text = " ".join(words)
        self.base_tokens = [(s, self.tokens[s][0]) for s in self.starts]
        self.entities = {}  # (start, end) -> class
        self.cycle_reset()
        while len(self.entities) < entities:
            self.entities[self._new_span()] = self.rng.pick(CLASSES)
        self.rng = Rng(seed, 4)

    def _end(self, k):
        return self.tokens[self.starts[k]][0]

    def _new_span(self):
        """A fresh 2-4 token entity region, not used since the last compaction."""
        while True:
            first = self.rng.below(len(self.starts) - 4)
            key = (self.starts[first], self._end(first + 1 + self.rng.below(3)))
            if key not in self.entities and key not in self.touched_entities:
                return key

    def _untouched(self, *ks):
        return all(self.starts[k] not in self.touched_tokens for k in ks)

    # -- files --

    def base_xml(self):
        return f"<text>{self.text}</text>"

    def tokens_xml(self):
        body = "".join(f'<w start="{s}" end="{e}"/>' for s, e in self.base_tokens)
        return f"<tokens>{body}</tokens>"

    def entities_xml(self):
        body = "".join(
            f'<entity start="{s}" end="{e}" class="{c}"/>' for (s, e), c in self.entities.items()
        )
        return f"<entities>{body}</entities>"

    # -- batches --

    def cycle_reset(self):
        """A compaction folded everything: all annotations are base again."""
        self.touched_tokens = set()
        self.touched_entities = set()

    def batch(self):
        """The next 32-op batch as (ops text, effect); apply the effect
        with `acknowledge` once the system has acknowledged the batch."""
        lines, removed, added, moves = [], [], [], []
        n = len(self.starts)
        for _ in range(TOKEN_SPLITS):
            k = self.rng.below(n)
            while not self._untouched(k) or self._end(k) == self.starts[k]:
                k = self.rng.below(n)
            s, e = self.starts[k], self._end(k)
            m = s + self.rng.below(e - s)
            halves = [(s, m, self.rng.pick(POS_TAGS)), (m + 1, e, self.rng.pick(POS_TAGS))]
            lines.append(f"retract tokens w {s} {e}")
            lines += [f"insert tokens w {a} {b} pos={t}" for a, b, t in halves]
            removed.append(s)
            added += halves
            self.touched_tokens.update((s, m + 1))
        for _ in range(TOKEN_MERGES):
            k = self.rng.below(n - 1)
            while not self._untouched(k, k + 1):
                k = self.rng.below(n - 1)
            (s1, s2), e2 = self.starts[k:k + 2], self._end(k + 1)
            tag = self.rng.pick(POS_TAGS)
            lines.append(f"retract tokens w {s1} {self._end(k)}")
            lines.append(f"retract tokens w {s2} {e2}")
            lines.append(f"insert tokens w {s1} {e2} pos={tag}")
            removed += [s1, s2]
            added.append((s1, e2, tag))
            self.touched_tokens.update((s1, s2))
        keys = sorted(self.entities)
        for _ in range(ENTITY_MOVES):
            old = self.rng.pick(keys)
            while old in self.touched_entities:
                old = self.rng.pick(keys)
            self.touched_entities.add(old)
            new = self._new_span()
            self.touched_entities.add(new)
            cls = self.rng.pick(CLASSES)
            lines.append(f"retract entities entity {old[0]} {old[1]}")
            lines.append(f"insert entities entity {new[0]} {new[1]} class={cls}")
            moves.append((old, new, cls))
        return "\n".join(lines) + "\n", (removed, added, moves)

    def acknowledge(self, effect):
        removed, added, moves = effect
        for s in removed:
            del self.tokens[s]
            self.starts.pop(bisect.bisect_left(self.starts, s))
        for s, e, tag in added:
            self.tokens[s] = [e, tag]
            bisect.insort(self.starts, s)
        for old, new, cls in moves:
            del self.entities[old]
            self.entities[new] = cls

    # -- reads and their predicted answers --

    def narrow_count(self, cls):
        """Distinct tokens inside any entity of class `cls`."""
        inside = set()
        for (s, e), c in self.entities.items():
            if c != cls:
                continue
            k = bisect.bisect_left(self.starts, s)
            while k < len(self.starts) and self.starts[k] <= e:
                if self._end(k) <= e:
                    inside.add(self.starts[k])
                k += 1
        return len(inside)

    def wide_count(self, first, last):
        """Entities overlapping any token `first..last` (list positions)."""
        starts = self.starts[first:last + 1]
        ends = [self.tokens[s][0] for s in starts]
        hits = 0
        for s, e in self.entities:
            k = bisect.bisect_left(ends, s)
            if k < len(starts) and starts[k] <= e:
                hits += 1
        return hits

    def read(self):
        """The next read as (query text, predicted answer)."""
        kind = self.rng.below(6)
        if kind < 2:
            cls = self.rng.pick(CLASSES)
            text = (f'count(doc("{CORPUS_URI}#entities")//entity[@class = "{cls}"]'
                    f"/select-narrow::w)")
            return text, str(self.narrow_count(cls))
        if kind < 4:
            first = self.rng.below(len(self.starts) - 200)
            lo, hi = self.starts[first], self.starts[first + 199]
            text = (f'count(doc("{CORPUS_URI}#tokens")//w[@start >= {lo}][@start <= {hi}]'
                    f"/select-wide::entity)")
            return text, str(self.wide_count(first, first + 199))
        if kind == 4:
            tag = self.rng.pick(POS_TAGS)
            text = f'count(doc("{CORPUS_URI}#tokens")//w[@pos = "{tag}"])'
            return text, str(sum(1 for _, t in self.tokens.values() if t == tag))
        cls = self.rng.pick(CLASSES)
        text = f'count(doc("{CORPUS_URI}#entities")//entity[@class = "{cls}"])'
        return text, str(sum(1 for c in self.entities.values() if c == cls))

    def identity_read(self):
        """The read run on the overlay before `compact` and on the
        compacted snapshot after it; both replies must be identical.
        Returns (query text, predicted number of `w` elements)."""
        text = f'doc("{CORPUS_URI}#entities")//entity[@class = "LOC"]/select-narrow::w'
        return text, self.narrow_count("LOC")


def cycle_plan():
    """The operation kinds of one cycle, in order: `journal` and
    `checkpoint` annotate batches, `read`s, the overlay/compacted
    `identity` reads around `compact`."""
    plan = []
    for _ in range(JOURNAL_BATCHES):
        plan += ["journal", "read", "read", "read"]
    plan += ["checkpoint", "read", "read", "identity", "compact", "identity"]
    return plan
