"""Generator bodies advanced side by side, their requests answered in stacks.

A body is a generator that yields requests and is sent their answers. A
request is a pair (answer, item): answer is the function that answers a
list of items with the list of their answers. run advances many bodies in
waves: each wave collects the next request of every live body and calls
each answer function once with the items of all bodies that named it, so a
kernel sees a stack of problems instead of one at a time. The verify
suites' trials and the matrix functional calculus of diskfun both run this
way.
"""

from __future__ import annotations


def run(bodies) -> list:
    """Advance the generator bodies (plain bodies return None and are
    skipped) side by side, and return what each body returns.

    In each wave, the requests (answer, item) that the bodies yield are
    grouped by answer function, in order of first appearance, and each
    function is called once with the list of its items; each body is sent
    its own answer. An answer that is an exception is raised in its body
    instead, at the yield, so that it fails that body alone unless the body
    lets it out.
    """
    results = [None] * len(bodies)
    live = [(k, body) for k, body in enumerate(bodies) if body is not None]
    sent = [None] * len(live)
    while live:
        groups, waiting = {}, []
        for (k, body), value in zip(live, sent):
            try:
                answer, item = (body.throw(value) if isinstance(value, Exception)
                                else body.send(value))
            except StopIteration as stop:
                results[k] = stop.value
                continue
            groups.setdefault(answer, []).append((len(waiting), item))
            waiting.append((k, body))
        sent = [None] * len(waiting)
        for answer, picked in groups.items():
            for (i, _), value in zip(picked, answer([item for _, item in picked])):
                sent[i] = value
        live = waiting
    return results
