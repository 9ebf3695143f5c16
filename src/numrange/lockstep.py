"""Generator bodies advanced side by side, their requests answered in stacks.

A body is a generator that yields requests and is sent their answers. A
request is a pair (answer, item): answer is the function that answers a
list of items with the list of their answers. run advances many bodies in
waves: each wave collects the next request of every live body and calls
each answer function once with the items of all bodies that named it, so a
kernel sees a stack of problems instead of one at a time. The verify
suites' trials, with the resolvent solves of their f(T), and diskfun's
eval_matrix all run this way.

One failure rule holds for every answer function: when a call raises a
NumrangeError, each of its items is asked again alone, and an item whose
own call raises has that error raised in its body, at the yield, so that a
singular member of a stack fails its body alone unless the body catches
it. Any other exception propagates at once.
"""

from __future__ import annotations

from .errors import NumrangeError


def run(bodies) -> list:
    """Advance the generator bodies (plain bodies return None and are
    skipped) side by side, and return what each body returns.

    In each wave, the requests (answer, item) that the bodies yield are
    grouped by answer function, in order of first appearance, and each
    function is called once with the list of its items; each body is sent
    its own answer, or has its own error raised (see the module docstring).
    """
    results = [None] * len(bodies)
    live = [(k, body) for k, body in enumerate(bodies) if body is not None]
    sent = [None] * len(live)
    while live:
        groups, waiting = {}, []
        for (k, body), value in zip(live, sent):
            try:
                answer, item = (body.throw(value) if isinstance(value, NumrangeError)
                                else body.send(value))
            except StopIteration as stop:
                results[k] = stop.value
                continue
            groups.setdefault(answer, []).append((len(waiting), item))
            waiting.append((k, body))
        sent = [None] * len(waiting)
        for answer, picked in groups.items():
            for (i, _), value in zip(picked, _answers(answer, [item for _, item in picked])):
                sent[i] = value
        live = waiting
    return results


def _answers(answer, items) -> list:
    """answer(items), or, if that raises a NumrangeError, each item's answer
    from a call of its own, with an item's error in place of its answer."""
    try:
        return answer(items)
    except NumrangeError as exc:
        if len(items) == 1:
            return [exc]
        return [_answers(answer, [item])[0] for item in items]
