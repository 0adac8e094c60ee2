"""Guarded-command text export of the parametric plan model.

Produces one module per agent chain with a progress counter and one attempt
counter per budgeted task, a transition-reward block, and a companion
properties file carrying the mission constraint and both optimisation
objectives.  Budget constants are emitted as searchable parameters when no
assignment is given, mirroring the synthesis tool convention
(`evolve const int x [lo..hi];`), or as fixed constants otherwise.

Output is byte-stable for fixed inputs so golden-file comparisons work.
"""

from __future__ import annotations

from typing import Optional

from .chains import AgentChain, ParametricPlanModel, RetryAssignment, validate_assignment


def _fmt(x: float) -> str:
    return repr(float(x))


def _var(agent: str, task: str) -> str:
    return f"x_{agent}_{task}"


def _bound(agent: str, task: str) -> str:
    return f"xmax_{agent}_{task}"


def export_model_source(model: ParametricPlanModel, assignment: Optional[RetryAssignment] = None) -> str:
    """Render the model as guarded-command probabilistic module text."""
    if not model.chains:
        raise ValueError("degenerate model: no agent chains")
    if assignment is not None:
        validate_assignment(model, assignment)
    out: list[str] = ["dtmc", ""]

    out.append("// attempt budgets (one per retryable task in the plan)")
    for chain in model.chains:
        for slot in chain.retry_slots:
            name = _bound(chain.agent, slot.task)
            if assignment is None:
                out.append(f"evolve const int {name} [{slot.lo}..{slot.hi}];")
            else:
                out.append(f"const int {name} = {assignment[slot.task]};")
    out.append("")

    for chain in model.chains:
        out.append(f"// success probabilities for {chain.agent}")
        for step in chain.steps:
            if step.kind == "do":
                out.append(f"const double p_{chain.agent}_{step.task} = {_fmt(step.p_success)};")
    out.append("")

    for chain in model.chains:
        n = chain.n_act
        out.append(f"formula {chain.agent}_final = c_{chain.agent} = {n};")
        out.append(f"formula {chain.agent}_fail = c_{chain.agent} = {n + 1};")
    out.append("")

    for chain in model.chains:
        out.extend(_render_module(chain))
        out.append("")

    out.append('label "success" = ' + " & ".join(f"{c.agent}_final" for c in model.chains) + ";")
    out.append(
        'label "done" = '
        + " & ".join(f"({c.agent}_final | {c.agent}_fail)" for c in model.chains)
        + ";"
    )
    out.append("")

    out.append('rewards "cost"')
    for chain in model.chains:
        c = f"c_{chain.agent}"
        for i, step in enumerate(chain.steps):
            if step.kind == "move":
                out.append(f"  [] {c} = {i} : {_fmt(step.cost)};")
            elif step.retry_cap > 0:
                x = _var(chain.agent, step.task)
                xb = _bound(chain.agent, step.task)
                out.append(f"  [] {c} = {i} & {x} < {xb} : {_fmt(step.cost)};")
            else:
                out.append(f"  [] {c} = {i} : {_fmt(step.cost)};")
    out.append("endrewards")
    out.append("")
    return "\n".join(out)


def _render_module(chain: AgentChain) -> list[str]:
    agent = chain.agent
    n = chain.n_act
    c = f"c_{agent}"
    lines = [f"module {agent}"]
    lines.append(f"  {c} : [0..{n + 1}] init 0;")
    for slot in chain.retry_slots:
        lines.append(f"  {_var(agent, slot.task)} : [0..{slot.hi}] init 0;")
    for i, step in enumerate(chain.steps):
        nxt = i + 1
        if step.kind == "move":
            lines.append(f"  [] {c} = {i} -> 1.0 : ({c}' = {nxt});")
            continue
        p = f"p_{agent}_{step.task}"
        if step.retry_cap == 0:
            lines.append(
                f"  [] {c} = {i} -> {p} : ({c}' = {nxt}) + 1 - {p} : ({c}' = {n + 1});"
            )
            continue
        x = _var(agent, step.task)
        xb = _bound(agent, step.task)
        lines.append(
            f"  [] {c} = {i} & {x} < {xb} -> "
            f"{p} : ({c}' = {nxt}) + 1 - {p} : ({x}' = {x} + 1);"
        )
        lines.append(f"  [] {c} = {i} & {x} = {xb} -> 1.0 : ({c}' = {n + 1});")
    lines.append(f"  [] {c} = {n} -> 1.0 : ({c}' = {n});")
    lines.append(f"  [] {c} = {n + 1} -> 1.0 : ({c}' = {n + 1});")
    lines.append("endmodule")
    return lines


def export_properties(model: ParametricPlanModel) -> str:
    """Constraint plus the two optimisation objectives, one per line."""
    if not model.chains:
        raise ValueError("degenerate model: no agent chains")
    return "\n".join(
        [
            f'P>={_fmt(model.p_succ_threshold)} [ F "success" ]',
            'min R{"cost"}=? [ F "done" ]',
            'max P=? [ F "success" ]',
            "",
        ]
    )
