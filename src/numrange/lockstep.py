"""Generator bodies advanced side by side, their requests answered in stacks.

A body is a generator that yields requests and is sent their answers. run
advances many bodies in waves: each wave collects the next request of
every live body and answers the requests of each kind with one call, so a
kernel sees a stack of problems instead of one at a time. The verify
suites' trials and the matrix functional calculus of diskfun both run this
way.
"""

from __future__ import annotations


def run(bodies, answers: dict) -> list:
    """Advance the generator bodies (plain bodies return None and are
    skipped) side by side, and return what each body returns.

    answers maps each request kind (a type) to the function that answers a
    list of requests of that kind with the list of their answers. In each
    wave, the requests that the bodies yield are grouped by type and each
    group is answered with one call; each body is sent its own answer. An
    answer that is an exception is raised in its body instead, at the
    yield, so that it fails that body alone unless the body lets it out.
    """
    results = [None] * len(bodies)
    live = [(k, body) for k, body in enumerate(bodies) if body is not None]
    sent = [None] * len(live)
    while live:
        asks, waiting = [], []
        for (k, body), answer in zip(live, sent):
            try:
                asks.append(body.throw(answer) if isinstance(answer, Exception)
                            else body.send(answer))
            except StopIteration as stop:
                results[k] = stop.value
                continue
            waiting.append((k, body))
        sent = [None] * len(asks)
        for kind, answer in answers.items():
            picked = [i for i, ask in enumerate(asks) if type(ask) is kind]
            if picked:
                for i, value in zip(picked, answer([asks[i] for i in picked])):
                    sent[i] = value
        live = waiting
    return results
