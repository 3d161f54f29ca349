"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every protocol here is fully seeded, so the reported statistics reproduce
bit for bit across runs.  The embedding criterion dominates the runtime
(two brute-force LOO sweeps over the karate graph); the whole module takes
on the order of fifteen minutes.
"""

import time

import numpy as np
import pytest

from vifkit.attributor import (
    DropOne,
    HessianContext,
    HessianSolver,
    PointMass,
    attribute_target,
    classical_if,
    finite_difference_if,
)
from vifkit.coxloss import CoxModel, RelativeRiskTarget, SurvivalDataset, reid_if
from vifkit.embedloss import EmbedModel, WalkParams, pair_loss_target
from vifkit.harness import (
    LogisticModel,
    brute_force_repeat,
    compare,
    logistic_fixture,
    loo_retrain,
    synth_graph,
    synth_ranking,
    synth_survival,
)
from vifkit.losscore import (
    PresenceVector,
    TrainConfig,
    check_gradient,
    check_hessian,
    train,
)
from vifkit.ltrloss import ListMLEModel, RankingDataset, query_loss_target
from vifkit.numkit import pearson

THETA_STAR = (1.0, -0.5, 0.25)


def _verdict(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _rel_inf(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_criterion_1_m_estimator_exactness(capsys):
    """VIF, classical IF, and finite-difference IF coincide on a smooth
    M-estimator: vif = n * classical elementwise, the point-mass step at
    eps = -1/(n-1) reproduces the same direction, and scaling a drop-one
    step by -(n-1) agrees with the point-mass step."""
    start = time.perf_counter()
    n = 50
    worst_vif = worst_fd = worst_drop = 0.0
    for seed in range(5):
        model = logistic_fixture(n, 5, seed=seed)
        res = train(
            model,
            PresenceVector.all_ones(n),
            TrainConfig(optimizer="newton", epochs=100, grad_tol=1e-12),
        )
        theta = res.theta
        ctx = HessianContext(model, theta, HessianSolver())
        for i in range(n):
            scaled = n * classical_if(model, theta, i)
            v = ctx.vif(i)
            fd_pm = finite_difference_if(model, theta, PointMass(i), eps=-1.0 / (n - 1))
            fd_do = finite_difference_if(model, theta, DropOne(i), eps=1.0)
            worst_vif = max(worst_vif, _rel_inf(v, scaled))
            worst_fd = max(worst_fd, _rel_inf(fd_pm, scaled))
            worst_drop = max(worst_drop, _rel_inf(-(n - 1) * fd_do, fd_pm))
    elapsed = time.perf_counter() - start
    ok = max(worst_vif, worst_fd, worst_drop) <= 1e-8 and elapsed < 5.0
    detail = (
        f"vif vs n*classical {worst_vif:.1e}, point-mass step vs classical "
        f"{worst_fd:.1e}, -(n-1)*drop-one vs point-mass {worst_drop:.1e} "
        f"(tol 1e-8); {elapsed:.1f}s < 5s"
    )
    _verdict(capsys, ok, "criterion 1: M-estimator exactness", detail)
    assert ok, detail


def test_criterion_2_cox_gap_rate(capsys):
    """The gap between VIF and the analytic Cox influence shrinks with n at
    a log-log rate around -1."""
    start = time.perf_counter()
    sizes = (50, 100, 200, 400)
    slopes = []
    for seed in range(5):
        medians = []
        for n in sizes:
            ds = synth_survival(n, 3, THETA_STAR, censor_rate=0.2, seed=seed)
            model = CoxModel(ds)
            res = train(
                model,
                PresenceVector.all_ones(n),
                TrainConfig(optimizer="newton", epochs=60),
            )
            theta = res.theta
            ctx = HessianContext(model, theta, HessianSolver())
            gaps = [
                np.linalg.norm(ctx.vif(i) - reid_if(theta, ds, i))
                for i in range(n)
            ]
            medians.append(float(np.median(gaps)))
        slopes.append(float(np.polyfit(np.log(sizes), np.log(medians), 1)[0]))
    elapsed = time.perf_counter() - start
    ok = all(-1.5 <= s <= -0.6 for s in slopes) and elapsed < 120.0
    detail = (
        "log-log slopes ["
        + ", ".join(f"{s:.2f}" for s in slopes)
        + f"] all within [-1.5, -0.6]; {elapsed:.0f}s < 120s"
    )
    _verdict(capsys, ok, "criterion 2: Cox gap decay rate", detail)
    assert ok, detail


@pytest.fixture(scope="module")
def cox_study():
    """Shared Cox attribution study: n=200 training records, 50 held-out
    relative-risk targets, full LOO plus a second independent LOO run and
    the three solver strategies.  Trains with the cox scenario's default
    first-order recipe so the LOO oracle is billed its realistic cost."""
    t0 = time.perf_counter()
    pool = synth_survival(250, 3, THETA_STAR, censor_rate=0.2, seed=42)
    data = SurvivalDataset(x=pool.x[:200], y=pool.y[:200], delta=pool.delta[:200])
    model = CoxModel(data)
    cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=200, seed=42)
    res = train(model, PresenceVector.all_ones(200), cfg)
    theta = res.theta
    targets = [RelativeRiskTarget(pool.x[200 + j]) for j in range(50)]
    objects = range(200)

    t1 = time.perf_counter()
    explicit = attribute_target(model, theta, targets, objects)
    vif_runtime = time.perf_counter() - t1

    t2 = time.perf_counter()
    loo = loo_retrain(model, cfg, objects, targets, full_result=res)
    loo_runtime = time.perf_counter() - t2

    repeat = brute_force_repeat(model, cfg, objects, targets, seed2=1042, first=loo)
    cg = attribute_target(
        model, theta, targets, objects, solver=HessianSolver(strategy="cg")
    )
    lissa = attribute_target(
        model, theta, targets, objects, solver=HessianSolver(strategy="lissa")
    )
    return {
        "explicit": explicit,
        "cg": cg,
        "lissa": lissa,
        "loo": loo,
        "ceiling": repeat.pearson_pooled,
        "vif_runtime": vif_runtime,
        "loo_runtime": loo_runtime,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_3_cox_loo_correlation(capsys, cox_study):
    report = compare(cox_study["explicit"].scores, -cox_study["loo"].deltas)
    ceiling = cox_study["ceiling"]
    elapsed = cox_study["elapsed"]
    ok = (
        report.pearson_r >= 0.90
        and report.pearson_r >= ceiling - 0.05
        and elapsed < 600.0
    )
    detail = (
        f"pearson r = {report.pearson_r:.4f} >= 0.90 over {report.n_pairs} pairs, "
        f"repeat-run ceiling {ceiling:.4f} (within 0.05); {elapsed:.0f}s < 600s"
    )
    _verdict(capsys, ok, "criterion 3: Cox LOO correlation", detail)
    assert ok, detail


def test_criterion_4_embedding_loo_correlation(capsys):
    """Karate-club embedding against brute-force LOO with fresh
    per-retraining inits; the loss is multimodal, so the repeat-run ceiling
    (a second LOO sweep under a different seed) bounds what any estimator
    can reach."""
    start = time.perf_counter()
    graph = synth_graph(preset="karate")
    model = EmbedModel(
        graph,
        k=2,
        walk_params=WalkParams(walks_per_node=200, walk_length=6, window=3, seed=5),
    )
    cfg = TrainConfig(optimizer="adam", learning_rate=0.05, epochs=300, seed=5)
    res = train(model, PresenceVector.all_ones(34), cfg)
    targets = [pair_loss_target(model, u, v) for u in range(34) for v in range(34)]
    result = attribute_target(
        model,
        res.theta,
        targets,
        objects=range(34),
        solver=HessianSolver(damping=0.05),
    )
    loo = loo_retrain(
        model, cfg, range(34), targets, full_result=res, jobs=4, fresh_inits=True
    )
    repeat = brute_force_repeat(
        model, cfg, range(34), targets, seed2=1005, first=loo, jobs=4, fresh_inits=True
    )

    n_targets = 34 * 34
    vif = result.scores
    loo_a = -loo.deltas
    loo_b = -repeat.second.deltas

    # Per-target correlation across objects, excluding the target pair's own
    # endpoints: dropping an endpoint node moves the target through its own
    # re-initialized embedding rows, not through data influence.
    obj = np.arange(34)
    r_vif, r_ceiling = [], []
    for t in range(n_targets):
        u, v = divmod(t, 34)
        keep = (obj != u) & (obj != v)
        r_vif.append(pearson(vif[keep, t], loo_a[keep, t]))
        r_ceiling.append(pearson(loo_a[keep, t], loo_b[keep, t]))
    mean_r = float(np.mean(r_vif))
    ceiling = float(np.mean(r_ceiling))
    elapsed = time.perf_counter() - start
    ok = mean_r >= 0.25 and mean_r >= ceiling - 0.15 and elapsed < 1800.0
    detail = (
        f"mean per-target pearson r = {mean_r:.4f} >= 0.25, repeat-run ceiling "
        f"{ceiling:.4f} (within 0.15); {elapsed:.0f}s < 1800s"
    )
    _verdict(capsys, ok, "criterion 4: embedding LOO correlation", detail)
    assert ok, detail


def test_criterion_5_listmle_loo_correlation(capsys):
    start = time.perf_counter()
    data = synth_ranking(m=200, n=30, k=5, p=8, seed=12)
    held_out = synth_ranking(m=50, n=30, k=5, p=8, seed=1012)
    model = ListMLEModel(data, l2=5e-4)
    cfg = TrainConfig(
        optimizer="adam", learning_rate=1e-3, epochs=100, batch_size=128, seed=12
    )
    res = train(model, PresenceVector.all_ones(30), cfg)
    targets = [
        query_loss_target(model, held_out.features[q], held_out.rel_lists[q])
        for q in range(held_out.m)
    ]
    result = attribute_target(model, res.theta, targets, objects=range(30))
    loo = loo_retrain(model, cfg, range(30), targets, full_result=res, jobs=4)
    report = compare(result.scores, -loo.deltas)
    elapsed = time.perf_counter() - start
    ok = report.pearson_r >= 0.75 and elapsed < 900.0
    detail = (
        f"pearson r = {report.pearson_r:.4f} >= 0.75 over {report.n_pairs} pairs; "
        f"{elapsed:.0f}s < 900s"
    )
    _verdict(capsys, ok, "criterion 5: ListMLE LOO correlation", detail)
    assert ok, detail


def test_criterion_6_solver_agreement(capsys, cox_study):
    explicit = cox_study["explicit"].scores.ravel()
    cos_cg = _cosine(explicit, cox_study["cg"].scores.ravel())
    cos_lissa = _cosine(explicit, cox_study["lissa"].scores.ravel())
    ok = cos_cg >= 0.999 and cos_lissa >= 0.95
    detail = f"score cosine: cg {cos_cg:.6f} >= 0.999, lissa {cos_lissa:.6f} >= 0.95"
    _verdict(capsys, ok, "criterion 6: solver agreement", detail)
    assert ok, detail


def test_criterion_7_attribution_speedup(capsys, cox_study):
    ratio = cox_study["loo_runtime"] / cox_study["vif_runtime"]
    ok = ratio >= 10.0
    detail = (
        f"attribution wall time: loo {cox_study['loo_runtime']:.2f}s / "
        f"vif {cox_study['vif_runtime']:.3f}s = {ratio:.0f}x >= 10x"
    )
    _verdict(capsys, ok, "criterion 7: speedup over brute-force LOO", detail)
    assert ok, detail


def test_criterion_8_derivatives_and_deletion(capsys):
    """Analytic derivatives match finite differences for all four loss
    families, and masking an object is equivalent to physically deleting it
    from the dataset."""
    start = time.perf_counter()
    logistic = logistic_fixture(40, 4, seed=1)
    cox_data = synth_survival(30, 3, (0.8, -0.4, 0.2), censor_rate=0.3, seed=5)
    cox = CoxModel(cox_data)
    graph = synth_graph(n=8, edge_prob=0.5, seed=11)
    wp = WalkParams(walks_per_node=12, walk_length=5, window=2, seed=4)
    embed = EmbedModel(graph, k=2, walk_params=wp)
    rank = synth_ranking(m=12, n=8, k=3, p=4, seed=2)
    ltr = ListMLEModel(rank, l2=5e-4)

    worst_grad = worst_hess = 0.0
    for model in (logistic, cox, embed, ltr):
        n = model.n_objects
        for t in range(10):
            rng = np.random.default_rng(1000 + t)
            theta = 0.3 * rng.standard_normal(model.dim)
            if t % 2 == 0:
                b = PresenceVector.all_ones(n)
            else:
                b = PresenceVector.drop(n, t % n)
            worst_grad = max(worst_grad, check_gradient(model, theta, b))
            worst_hess = max(worst_hess, check_hessian(model, theta, b))

    worst_del = 0.0
    rng = np.random.default_rng(77)

    # logistic: the ridge term is split evenly across objects, so the
    # deleted model carries reg * (n-1)/n
    theta = 0.3 * rng.standard_normal(4)
    deleted = LogisticModel(
        x=np.delete(logistic.x, 7, axis=0),
        labels=np.delete(logistic.labels, 7),
        reg=logistic.reg * 39 / 40,
    )
    masked, ones = PresenceVector.drop(40, 7), PresenceVector.all_ones(39)
    worst_del = max(
        worst_del,
        abs(logistic.value(theta, masked) - deleted.value(theta, ones)),
        np.abs(logistic.gradient(theta, masked) - deleted.gradient(theta, ones)).max(),
    )

    theta = 0.3 * rng.standard_normal(3)
    del_cox = CoxModel(
        SurvivalDataset(
            x=np.delete(cox_data.x, 11, axis=0),
            y=np.delete(cox_data.y, 11),
            delta=np.delete(cox_data.delta, 11),
        )
    )
    masked, ones = PresenceVector.drop(30, 11), PresenceVector.all_ones(29)
    worst_del = max(
        worst_del,
        abs(cox.value(theta, masked) - del_cox.value(theta, ones)),
        np.abs(cox.gradient(theta, masked) - del_cox.gradient(theta, ones)).max(),
    )

    # embedding: delete the trailing node so surviving ids are unchanged
    theta = 0.3 * rng.standard_normal(embed.dim)
    del_embed = EmbedModel(graph.without_node(7), k=2, walk_params=wp)
    theta_del = np.concatenate(
        [theta[:16].reshape(8, 2)[:7].ravel(), theta[16:].reshape(8, 2)[:7].ravel()]
    )
    masked, ones = PresenceVector.drop(8, 7), PresenceVector.all_ones(7)
    grad = embed.gradient(theta, masked)
    grad_kept = np.concatenate(
        [grad[:16].reshape(8, 2)[:7].ravel(), grad[16:].reshape(8, 2)[:7].ravel()]
    )
    worst_del = max(
        worst_del,
        abs(embed.value(theta, masked) - del_embed.value(theta_del, ones)),
        np.abs(grad_kept - del_embed.gradient(theta_del, ones)).max(),
    )

    # ranking: trailing item, ridge off (the ridge freezes dropped rows
    # rather than removing them)
    ltr_plain = ListMLEModel(rank, l2=0.0)
    del_ltr = ListMLEModel(
        RankingDataset(
            features=rank.features,
            rel_lists=tuple(
                tuple(item for item in lst if item != 7) for lst in rank.rel_lists
            ),
            n_items=7,
        ),
        l2=0.0,
    )
    theta = 0.3 * rng.standard_normal(32)
    theta_del = theta.reshape(8, 4)[:7].ravel()
    masked, ones = PresenceVector.drop(8, 7), PresenceVector.all_ones(7)
    grad_kept = ltr_plain.gradient(theta, masked).reshape(8, 4)[:7].ravel()
    worst_del = max(
        worst_del,
        abs(ltr_plain.value(theta, masked) - del_ltr.value(theta_del, ones)),
        np.abs(grad_kept - del_ltr.gradient(theta_del, ones)).max(),
    )

    elapsed = time.perf_counter() - start
    ok = worst_grad <= 1e-4 and worst_hess <= 1e-3 and worst_del <= 1e-10
    detail = (
        f"max gradient error {worst_grad:.1e} <= 1e-4, max hessian error "
        f"{worst_hess:.1e} <= 1e-3, mask-vs-delete gap {worst_del:.1e} <= 1e-10; "
        f"{elapsed:.0f}s"
    )
    _verdict(capsys, ok, "criterion 8: derivative and deletion correctness", detail)
    assert ok, detail
