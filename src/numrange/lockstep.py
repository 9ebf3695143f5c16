"""Generator bodies advanced side by side, their requests answered in stacks.

A body is a generator that yields requests and is sent their answers. A
request is a pair (answer, items): items is a list, and answer is the
function that answers a list of items with the list (or array) of their
answers. run advances many bodies in waves: each wave collects the next
request of every live body, joins the item lists of all bodies that name
the same answer function into one flat list, calls that function once on
it, and sends each body its own slice of the result, so a kernel sees a
stack of problems instead of one at a time. This is the only place where
a wave's requests are joined and their answers split back: the verify
suites' trials, with the resolvent solves of their f(T), and diskfun's
eval_matrix all run this way.

One failure rule holds for every answer function: when a call raises a
NumrangeError, each body's item list is asked again alone, and a body
whose own call raises has that error raised at its yield, so that a
singular member of a stack fails its body alone unless the body catches
it. Any other exception propagates at once.
"""

from __future__ import annotations

import itertools

from .errors import NumrangeError


def run(bodies) -> list:
    """Advance the generator bodies (plain bodies return None and are
    skipped) side by side, and return what each body returns.

    In each wave, the requests (answer, items) that the bodies yield are
    grouped by answer function, in order of first appearance, and each
    function is called once with the items of all its requests, in body
    order; each body is sent its own slice of the answers, or has its own
    error raised (see the module docstring).
    """
    results = [None] * len(bodies)
    live = [(k, body) for k, body in enumerate(bodies) if body is not None]
    sent = [None] * len(live)
    while live:
        groups, waiting = {}, []
        for (k, body), value in zip(live, sent):
            try:
                answer, items = (body.throw(value) if isinstance(value, NumrangeError)
                                 else body.send(value))
            except StopIteration as stop:
                results[k] = stop.value
                continue
            groups.setdefault(answer, []).append((len(waiting), items))
            waiting.append((k, body))
        sent = [None] * len(waiting)
        for answer, picked in groups.items():
            for (i, _), value in zip(picked, _answers(answer, [items for _, items in picked])):
                sent[i] = value
        live = waiting
    return results


def _answers(answer, lists) -> list:
    """Each item list's slice of answer(all their items), or, if that call
    raises a NumrangeError, each list's answer from a call of its own, with
    a list's error in place of its answer."""
    try:
        flat = answer([item for items in lists for item in items])
    except NumrangeError as exc:
        if len(lists) == 1:
            return [exc]
        return [_answers(answer, [items])[0] for items in lists]
    ends = itertools.accumulate(map(len, lists))
    return [flat[end - len(items):end] for items, end in zip(lists, ends)]
