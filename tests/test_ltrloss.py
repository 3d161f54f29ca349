"""ListMLE over a fixed item universe: worked values, deletion algebra."""

import numpy as np
import pytest

from conftest import count_calls
from vifkit import files, ltrloss
from vifkit.errors import DataError, NoPresentItemsError
from vifkit.losscore import PresenceVector, check_gradient, check_hessian
from vifkit.ltrloss import ListMLEModel, QueryLossTarget, RankingDataset, query_loss_target
from vifkit.synth import synth_ranking


def naive_listmle(w, data, present_mask, l2=0.0):
    """Plackett-Luce likelihood by literal candidate-set shrinking."""
    total = 0.5 * l2 * float((w * w).sum())
    for x, lst in zip(data.features, data.rel_lists):
        scores = w @ x
        cand = [i for i in range(data.n_items) if present_mask[i]]
        for item in lst:
            if not present_mask[item]:
                continue
            total += np.log(np.exp([scores[c] for c in cand]).sum()) - scores[item]
            cand.remove(item)
    return total


@pytest.fixture(scope="module")
def ranking_data():
    return synth_ranking(m=15, n=8, k=3, p=4, seed=2)


# Lists from 1 to all 8 items long, so the padded batch has positions past
# the end of most lists and one list that uses every item.
RAGGED_LISTS = ((3, 0, 6), (5, 2), (1,), (7, 4, 0, 2, 6), (2, 6, 1, 0, 3, 5, 7, 4),
                (6, 5), (0, 7, 3, 1))


@pytest.fixture(scope="module")
def ranking_cases(ranking_data):
    """(dataset, masked presence) pairs over the same 8 items and 4 features.

    The ragged case masks items 2 and 5: query 1's whole list disappears,
    query 5 keeps one item and the full-length list loses two.
    """
    rng = np.random.default_rng(11)
    ragged = RankingDataset(
        features=rng.normal(0.0, 1.0, (len(RAGGED_LISTS), 4)),
        rel_lists=RAGGED_LISTS,
        n_items=8,
    )
    return (
        (ranking_data, PresenceVector.drop(8, 2)),
        (ragged, PresenceVector(~np.isin(np.arange(8), (2, 5)))),
    )


class TestRankingDataset:
    def test_validation(self):
        with pytest.raises(DataError):
            RankingDataset(features=np.ones((1, 2)), rel_lists=((0, 0),), n_items=3)
        with pytest.raises(DataError):
            RankingDataset(features=np.ones((1, 2)), rel_lists=((5,),), n_items=3)
        with pytest.raises(DataError):
            RankingDataset(features=np.ones((2, 2)), rel_lists=((0,),), n_items=3)

    def test_csv_round_trip(self, tmp_path, ranking_data):
        qp = tmp_path / "queries.csv"
        lp = tmp_path / "labels.csv"
        header = "query_id," + ",".join(f"x{j+1}" for j in range(ranking_data.p))
        q_rows = [header]
        for qi in range(ranking_data.m):
            q_rows.append(
                ",".join([str(qi)] + [repr(float(v)) for v in ranking_data.features[qi]])
            )
        qp.write_text("\n".join(q_rows) + "\n")
        l_rows = ["query_id,rank,item_id"]
        for qi, lst in enumerate(ranking_data.rel_lists):
            for rank, item in enumerate(lst):
                l_rows.append(f"{qi},{rank},{item}")
        lp.write_text("\n".join(l_rows) + "\n")
        loaded = files.read_ranking(qp, lp)
        np.testing.assert_array_equal(loaded.features, ranking_data.features)
        assert loaded.rel_lists == ranking_data.rel_lists

    def test_csv_rank_gaps_rejected(self, tmp_path):
        qp = tmp_path / "queries.csv"
        lp = tmp_path / "labels.csv"
        qp.write_text("query_id,x1\n0,1.0\n")
        lp.write_text("query_id,rank,item_id\n0,0,0\n0,2,1\n")
        with pytest.raises(DataError):
            files.read_ranking(qp, lp)


class TestListMLEValue:
    def test_uniform_scores_worked_example(self):
        # one query ranking 2 of 3 items with theta = 0: log 3 + log 2
        data = RankingDataset(
            features=np.array([[1.0, 0.5]]), rel_lists=((0, 1),), n_items=3
        )
        model = ListMLEModel(data)
        v = model.value(np.zeros(6), PresenceVector.all_ones(3))
        assert v == pytest.approx(np.log(3) + np.log(2), abs=1e-14)

    def test_single_item_query_is_free(self):
        data = RankingDataset(
            features=np.array([[2.0]]), rel_lists=((0,),), n_items=1
        )
        model = ListMLEModel(data)
        assert model.value(np.zeros(1), PresenceVector.all_ones(1)) == 0.0

    def test_matches_naive_reference(self, ranking_cases):
        rng = np.random.default_rng(0)
        for data, masked in ranking_cases:
            model = ListMLEModel(data, l2=0.1)
            for trial in range(6):
                w = rng.normal(0.0, 0.5, (8, 4))
                b = PresenceVector.all_ones(8)
                if trial % 3 == 1:
                    b = b.without(int(rng.integers(8)))
                elif trial % 3 == 2:
                    b = masked
                expected = naive_listmle(w, data, b.bits, l2=0.1)
                assert model.value(w.ravel(), b) == pytest.approx(expected, rel=1e-12)

    def test_all_items_absent_raises(self, ranking_data):
        model = ListMLEModel(ranking_data)
        b = PresenceVector(np.zeros(8, dtype=bool))
        with pytest.raises(NoPresentItemsError):
            model.value(np.zeros(32), b)

    @pytest.mark.parametrize("l2", [-1.0, float("nan"), float("inf"), True, "0.1"])
    def test_l2_must_be_a_real_at_least_zero(self, ranking_data, l2):
        with pytest.raises(ValueError, match="l2 must be a real >= 0"):
            ListMLEModel(ranking_data, l2=l2)


class TestListMLELayout:
    def test_candidate_mask_is_the_literal_definition(self, ranking_cases):
        """An item is a candidate at position j unless it is among the
        list's first j present items; every item is at a padded position."""
        ragged, masked = ranking_cases[1]
        model = ListMLEModel(ragged)
        for b in (PresenceVector.all_ones(8), masked):
            lay = model._layout_of(b)
            kept = [[i for i in RAGGED_LISTS[q] if b.bits[i]] for q in lay.rows]
            k = max(map(len, kept))
            assert lay.cand.shape == (len(kept), k, b.count)
            for row, lst in enumerate(kept):
                for j in range(k):
                    want = [j >= len(lst) or item not in lst[:j] for item in lay.items]
                    assert lay.cand[row, j].tolist() == want

    def test_target_candidate_mask(self):
        t = QueryLossTarget(np.ones(2), (3, 0, 2), n_items=4, p=2)
        np.testing.assert_array_equal(
            t._cand[0], [[1, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 0]]
        )

    def test_untrimmed_padding_adds_nothing(self, ranking_cases):
        """A minibatch of short lists keeps the layout's longest-list width;
        its padded positions leave the gradient of a model built from those
        queries alone unchanged."""
        ragged, masked = ranking_cases[1]
        model = ListMLEModel(ragged)
        theta = np.random.default_rng(12).normal(0.0, 0.3, model.dim)
        idx = [0, 2, 5]  # lists of 3, 1 and 2 items; the longest has 8
        alone = ListMLEModel(RankingDataset(
            features=ragged.features[idx], rel_lists=tuple(RAGGED_LISTS[q] for q in idx),
            n_items=8,
        ))
        for b in (PresenceVector.all_ones(8), masked):
            np.testing.assert_array_equal(
                model.term_gradient_sum(theta, b, idx), alone.gradient(theta, b)
            )

    def test_layouts_are_built_once_and_bounded(self, monkeypatch, ranking_data):
        builds = count_calls(monkeypatch, ltrloss, "_layout")
        model = ListMLEModel(ranking_data, l2=0.05)
        theta = np.random.default_rng(13).normal(0.0, 0.3, model.dim)
        ones = PresenceVector.all_ones(8)
        first = model.delta_gradients(theta, range(8))
        assert len(builds) == 1 + 8
        assert len(model._layouts) <= 2 and ones.bits.tobytes() in model._layouts
        # a second pass at the same presence vector reads the cached layout
        b = ones.without(7)
        model.gradient(theta, b)
        model.term_gradient_sum(theta, b, [3, 1])
        model.hessian(theta, ones)
        assert len(builds) == 1 + 8
        np.testing.assert_array_equal(model.delta_gradients(theta, [7]), first[7:])
        assert len(builds) == 1 + 8


class TestListMLEDerivatives:
    def test_gradient_and_hessian_check(self, ranking_cases):
        rng = np.random.default_rng(1)
        for data, masked in ranking_cases:
            model = ListMLEModel(data, l2=0.05)
            theta = rng.normal(0.0, 0.3, model.dim)
            for b in (PresenceVector.all_ones(8), masked):
                assert check_gradient(model, theta, b) < 1e-7
                assert check_hessian(model, theta, b) < 1e-6

    def test_uniform_shift_in_nullspace_without_ridge(self, ranking_data):
        """Adding the same vector to every item row shifts all scores in a
        candidate set equally, so the raw loss cannot see it."""
        model = ListMLEModel(ranking_data, l2=0.0)
        rng = np.random.default_rng(2)
        theta = rng.normal(0.0, 0.3, model.dim)
        b = PresenceVector.all_ones(8)
        u = rng.standard_normal(4)
        shift = np.tile(u, 8)
        assert model.value(theta + shift, b) == pytest.approx(
            model.value(theta, b), rel=1e-12
        )
        np.testing.assert_allclose(model.hessian(theta, b) @ shift,
                                   np.zeros(model.dim), atol=1e-10)

    def test_ridge_restores_definiteness(self, ranking_data):
        model = ListMLEModel(ranking_data, l2=0.05)
        rng = np.random.default_rng(3)
        theta = rng.normal(0.0, 0.3, model.dim)
        eigs = np.linalg.eigvalsh(model.hessian(theta, PresenceVector.all_ones(8)))
        assert eigs.min() >= 0.05 - 1e-10

    def test_delta_gradient_is_exact_difference(self, ranking_cases):
        rng = np.random.default_rng(4)
        ones = PresenceVector.all_ones(8)
        for data, _ in ranking_cases:
            model = ListMLEModel(data, l2=0.05)
            theta = rng.normal(0.0, 0.3, model.dim)
            g_full = model.gradient(theta, ones)
            for i in range(8):
                direct = g_full - model.gradient(theta, ones.without(i))
                np.testing.assert_allclose(model.delta_gradients(theta, [i])[0], direct,
                                           atol=1e-11)

    def test_delta_gradients_match_stacked_difference(self, ranking_cases):
        """One full-presence pass serves the batch; each row is still the
        two-pass difference, in the order the ids are given."""
        rng = np.random.default_rng(8)
        ones = PresenceVector.all_ones(8)
        for data, _ in ranking_cases:
            model = ListMLEModel(data, l2=0.05)
            theta = rng.normal(0.0, 0.3, model.dim)
            ids = [5, 0, 7, 2]
            d = model.delta_gradients(theta, ids)
            stacked = np.stack([model.delta_gradients(theta, [i])[0] for i in ids])
            assert np.abs(d - stacked).max() <= 1e-12 * np.abs(stacked).max()
            full = model._query_coefficients(theta, ones)
            for row, i in enumerate(ids):
                diff = full - model._query_coefficients(theta, ones.without(i))
                np.testing.assert_array_equal(d[row], (diff.T @ data.features).ravel())

    def test_delta_gradient_ignores_ridge(self, ranking_data):
        rng = np.random.default_rng(5)
        theta = rng.normal(0.0, 0.3, 32)
        bare = ListMLEModel(ranking_data, l2=0.0)
        ridged = ListMLEModel(ranking_data, l2=0.7)
        np.testing.assert_allclose(bare.delta_gradients(theta, [3]),
                                   ridged.delta_gradients(theta, [3]), atol=1e-12)

    def test_term_gradient_sum_over_all_queries(self, ranking_cases):
        rng = np.random.default_rng(6)
        for data, masked in ranking_cases:
            model = ListMLEModel(data, l2=0.05)
            theta = rng.normal(0.0, 0.3, model.dim)
            for b in (PresenceVector.all_ones(8), masked):
                np.testing.assert_allclose(
                    model.term_gradient_sum(theta, b, np.arange(model.num_terms(b))),
                    model.gradient(theta, b), atol=1e-11,
                )

    def test_mask_equals_delete_for_trailing_item(self, ranking_cases):
        """With no ridge, masking the last item agrees bit for bit with
        physically shrinking the item universe (same surviving ids, smaller
        W): value, gradient rows and Hessian block of the surviving items,
        on a fresh model and on one whose layout cache is warm."""
        rng = np.random.default_rng(7)
        b, ones = PresenceVector.drop(8, 7), PresenceVector.all_ones(7)
        for data, _ in ranking_cases:
            model = ListMLEModel(data, l2=0.0)
            lists_cut = tuple(tuple(i for i in lst if i != 7) for lst in data.rel_lists)
            keep = [qi for qi, lst in enumerate(lists_cut) if lst]
            cut_data = RankingDataset(
                features=data.features[keep],
                rel_lists=tuple(lists_cut[qi] for qi in keep),
                n_items=7,
            )
            cut = ListMLEModel(cut_data, l2=0.0)
            w = rng.normal(0.0, 0.3, (8, 4))
            theta, theta_cut = w.ravel(), w[:7].ravel()
            for warm in (False, True):
                if warm:  # leaves the full and the drop-7 layouts cached
                    model.delta_gradients(theta, range(8))
                    model.gradient(theta + 0.5, b)
                assert model.value(theta, b) == cut.value(theta_cut, ones)
                np.testing.assert_array_equal(
                    model.gradient(theta, b)[:28], cut.gradient(theta_cut, ones)
                )
                np.testing.assert_array_equal(
                    model.hessian(theta, b)[:28, :28], cut.hessian(theta_cut, ones)
                )


class TestQueryLossTarget:
    def test_value_matches_model_on_singleton_dataset(self, ranking_data):
        model = ListMLEModel(ranking_data, l2=0.05)
        x = np.array([0.3, -0.2, 0.8, 0.1])
        y_list = (4, 1)
        t = query_loss_target(model, x, y_list)
        single = RankingDataset(features=x[None, :], rel_lists=(y_list,), n_items=8)
        ref = ListMLEModel(single, l2=0.0)
        rng = np.random.default_rng(8)
        theta = rng.normal(0.0, 0.3, model.dim)
        assert t.value(theta) == pytest.approx(
            ref.value(theta, PresenceVector.all_ones(8)), rel=1e-12
        )

    def test_gradient_matches_finite_difference(self, ranking_data):
        model = ListMLEModel(ranking_data)
        t = query_loss_target(model, np.array([0.3, -0.2, 0.8, 0.1]), (4, 1, 6))
        rng = np.random.default_rng(9)
        theta = rng.normal(0.0, 0.3, model.dim)
        g = t.gradient(theta)
        h = 1e-6
        for j in rng.choice(model.dim, 6, replace=False):
            e = np.zeros(model.dim)
            e[j] = h
            fd = (t.value(theta + e) - t.value(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)
