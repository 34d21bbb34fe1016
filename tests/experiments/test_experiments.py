"""Shape assertions for every figure's experiment, at reduced scale.

Each test asserts the *shape* the paper reports — who wins, rough
factors, where plateaus sit — not absolute numbers (our substrate is a
simulator, not the authors' testbed).
"""

import pytest

from repro.experiments import (
    fig2_loss_filter,
    fig5_acker_selection,
    star,
    unreliable_mode,
)
from repro.experiments.registry import get_experiment
from repro.sweep import expand


def study_cells(study_id, scale):
    """Each of the study's cells, run as the report runs it at
    ``--scale scale``: its task id less the study's name (``base``,
    ``link=lossy``, ...) -> its metrics."""
    study = get_experiment(study_id)
    return {task.id.removeprefix(f"{study_id}/"):
            task.spec.run(scale * study.scale).metrics
            for task in expand(study)}


@pytest.fixture(scope="module")
def fig2():
    return fig2_loss_filter.run(scale=0.4)


@pytest.fixture(scope="module")
def fig3():
    return study_cells("EXP-F3", 0.4)


@pytest.fixture(scope="module")
def fig4():
    return study_cells("EXP-F4", 0.4)


@pytest.fixture(scope="module")
def fig5():
    return fig5_acker_selection.run(scale=0.4)


class TestFig2:
    def test_lossy_output_in_band(self, fig2):
        """5% random loss: mean filter output near 0.05·2^16 ≈ 3277,
        inside the figure's 2000–6000 band."""
        mean = fig2.metrics["lossy-5pct:w65000:mean"]
        raw = fig2.metrics["lossy-5pct:raw_loss"]
        assert 2000 < mean < 6000
        assert mean / 65536 == pytest.approx(raw, rel=0.35)

    def test_smaller_w_noisier(self, fig2):
        """Fig. 2: the three W values differ in smoothing."""
        for scenario in ("congested-60k", "lossy-5pct"):
            stds = [fig2.metrics[f"{scenario}:w{w}:std"] for w in (64000, 65000, 65280)]
            assert stds[0] > stds[1] > stds[2]

    def test_congested_loss_sparse_and_low(self, fig2):
        assert fig2.metrics["congested-60k:raw_loss"] < 0.10

    def test_rows_cover_all_scenarios(self, fig2):
        assert len(fig2.rows) == 6  # 2 scenarios x 3 W values


class TestFig3:
    def test_nonlossy_even_split(self, fig3):
        assert fig3["link=non-lossy"]["jain"] > 0.9

    def test_nonlossy_first_session_yields(self, fig3):
        alone = fig3["link=non-lossy"]["rate1_alone"]
        shared = fig3["link=non-lossy"]["rate1_shared"]
        assert shared < 0.75 * alone
        assert shared > 0.3 * alone

    def test_lossy_unperturbed(self, fig3):
        """Lossy link: no congestion coupling, session 1's rate holds."""
        alone = fig3["link=lossy"]["rate1_alone"]
        shared = fig3["link=lossy"]["rate1_shared"]
        assert shared == pytest.approx(alone, rel=0.35)

    def test_switches_happen_without_harm(self, fig3):
        """c=1 here: the 2-receiver session sees acker switches."""
        assert fig3["link=non-lossy"]["switches1"] >= 1


class TestFig4:
    def test_no_starvation(self, fig4):
        for cell in ("link=non-lossy", "link=lossy"):
            assert fig4[cell]["ratio"] < 3.5

    def test_pgm_regains_link_after_tcp(self, fig4):
        alone = fig4["link=non-lossy"]["pgm_alone"]
        after = fig4["link=non-lossy"]["pgm_after"]
        assert after > 0.75 * alone

    def test_pgm_yields_to_tcp(self, fig4):
        alone = fig4["link=non-lossy"]["pgm_alone"]
        shared = fig4["link=non-lossy"]["pgm_shared"]
        assert shared < 0.8 * alone

    def test_colocated_receivers_cause_switches(self, fig4):
        assert fig4["link=non-lossy"]["acker_switches"] >= 1


class TestFig5:
    def test_plateau_sequence(self, fig5):
        p1 = fig5.metrics["plateau1"]
        p2 = fig5.metrics["plateau2"]
        p3 = fig5.metrics["plateau3"]
        p4 = fig5.metrics["plateau4"]
        # ≈500 alone on L2
        assert p1 == pytest.approx(500_000, rel=0.15)
        # ≈400 with PR1 on L1
        assert p2 == pytest.approx(400_000, rel=0.15)
        # TCP on L2 drags the session well below L1's rate
        assert p3 < 0.8 * p2
        # recovery after TCP ends
        assert p4 > 0.8 * p2

    def test_acker_follows_slowest_path(self, fig5):
        ackers = fig5.metrics["ackers"]
        assert ackers["phase1"] == "pr2"
        assert ackers["phase2"] == "pr1"
        assert ackers["phase3"] == "pr2"
        assert ackers["phase4"] == "pr1"

    def test_switches_at_transitions(self, fig5):
        assert fig5.metrics["switch_count"] >= 3

    def test_multiple_receivers_per_site_same_structure(self):
        """The paper: identical results (plateaus, acker sites) in NS
        with up to 10 receivers at each of PR1 and PR2."""
        multi = fig5_acker_selection.run(scale=0.4, receivers_per_site=3)
        assert multi.metrics["plateau1"] == pytest.approx(500_000, rel=0.15)
        assert multi.metrics["plateau2"] == pytest.approx(400_000, rel=0.15)
        assert multi.metrics["plateau3"] < 0.8 * multi.metrics["plateau2"]
        ackers = multi.metrics["ackers"]
        # acker sits on the L2 site first, the L1 site after the join
        assert ackers["phase1"].startswith("pr2")
        assert ackers["phase2"].startswith("pr1")
        assert ackers["phase3"].startswith("pr2")


#: EXP-F6's cells: no NE, NE suppression, rx_loss-aware NE
NO_NE = "suppression=False,rx_loss_aware=False"
NE = "suppression=True,rx_loss_aware=False"
NE_AWARE = "suppression=True,rx_loss_aware=True"


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return study_cells("EXP-F6", 0.25)

    def test_acker_is_a_group_member(self, fig6):
        for cell in (NO_NE, NE, NE_AWARE):
            assert fig6[cell]["dominant_acker"] in {"pr0", "pr1", "pr2", "pr3"}

    def test_tcp_not_starved(self, fig6):
        """RTT spread 3–4x; the ratio must stay within TCP-vs-TCP
        unfairness bounds, not starvation."""
        for cell in (NO_NE, NE, NE_AWARE):
            assert fig6[cell]["ratio"] < 8.0
            assert fig6[cell]["pgm_rate"] > 20_000
            assert fig6[cell]["tcp_rate"] > 20_000

    def test_suppression_absorbs_nak_share(self, fig6):
        """Within the NE run, a substantial share of NAKs seen by the
        routers never reaches the source.  (Cross-run totals are not
        comparable: a different acker changes the loss trajectory.)"""
        suppressed = fig6[NE]["ne_naks_suppressed"]
        forwarded = fig6[NE]["ne_naks_forwarded"]
        assert suppressed > 0
        assert suppressed / (suppressed + forwarded) > 0.1

    def test_suppression_counters_active(self, fig6):
        """Both NE modes actually suppress NAKs (the §3.7 rule's
        forward-worse-reports behaviour has a deterministic unit test;
        cross-mode totals are too run-dependent to order here)."""
        for cell in (NE, NE_AWARE):
            assert fig6[cell]["ne_naks_suppressed"] > 0


class TestFig7:
    @pytest.fixture(scope="class")
    def fig7(self):
        return star.run_cell(scale=0.12, n_receivers=60, joiners=50)

    def test_no_drop_to_zero(self, fig7):
        """The 50-receiver join must not collapse the session; the
        paper even allows a modest increase."""
        assert 0.5 < fig7.metrics["change_ratio"] < 2.0

    def test_tcp_on_own_link_unaffected(self, fig7):
        before = fig7.metrics["tcp_before"]
        after = fig7.metrics["tcp_after"]
        assert after > 0.5 * before

    def test_no_repair_storm(self, fig7):
        assert fig7.metrics["rdata_sent"] < fig7.metrics["odata_sent"]

    def test_no_stall_collapse(self, fig7):
        assert fig7.metrics["stalls"] <= 2


class TestUnreliableMode:
    @pytest.fixture(scope="class")
    def unrel(self):
        return unreliable_mode.run(scale=0.4)

    def test_no_repairs_ever(self, unrel):
        assert unrel.metrics["rdata_sent"] == 0
        # ... yet reports still reach the source
        assert unrel.metrics["naks_received"] > 0

    def test_rate_follows_link(self, unrel):
        assert unrel.metrics["rate_after"] < 0.6 * unrel.metrics["rate_before"]

    def test_app_steps_down(self, unrel):
        levels = [lv.rate_bps for lv in unreliable_mode.LEVELS]
        by_name = {lv.name: lv.rate_bps for lv in unreliable_mode.LEVELS}
        assert (
            by_name[unrel.metrics["level_after"]]
            < by_name[unrel.metrics["level_before"]]
        )


@pytest.fixture(scope="module")
def abl_fig4():
    """ABL-FIG4's 11 cells at 60 simulated seconds each."""
    return study_cells("ABL-FIG4", 0.5)


class TestAblations:
    def test_switch_bias_reduces_switches(self, abl_fig4):
        cells = {c: abl_fig4[f"c={c}"] for c in (0.9, 0.75, 0.6)}
        cells[1.0] = abl_fig4["base"]
        for c in (0.75, 0.6):
            assert cells[c]["acker_switches"] <= cells[1.0]["acker_switches"]
        for cell in cells.values():
            assert cell["ratio"] < 4.5  # fairness intact
        # throughput unaffected by the bias
        assert cells[0.75]["pgm_shared"] == pytest.approx(
            cells[1.0]["pgm_shared"], rel=0.6
        )

    def test_rtt_modes_equivalent(self):
        cells = study_cells("ABL-RTT", 0.5)
        seq, time = cells["base"], cells["rtt_mode=time"]
        for phase in (1, 2, 3, 4):
            assert time[f"plateau{phase}"] == pytest.approx(
                seq[f"plateau{phase}"], rel=0.3
            )

    def test_dupack_thresholds_all_fair(self, abl_fig4):
        for cell in ("dupack_threshold=2", "base", "dupack_threshold=4",
                     "dupack_threshold=5"):
            assert abl_fig4[cell]["ratio"] < 4.5

    def test_ssthresh_six_avoids_stalls(self, abl_fig4):
        assert abl_fig4["base"]["pgm_stalls"] <= 2
        assert abl_fig4["base"]["ratio"] < 4.5

    def test_studies_expand_to_the_loops_they_replace(self):
        """ABL-FIG4's cells are the 14 sessions of the ABL-C, ABL-DUP,
        ABL-SS and ABL-DELACK loops less three repeats of the paper's
        setting; EXP-SWEEP's are the old 18-cell grid, in its order;
        EXP-F3, EXP-F4, EXP-F6, EXP-ADV, ABL-MODEL, ABL-ADSS, ABL-TFRC
        and ABL-BURST run their old loops' cases."""
        def knobs(study_id, names):
            return [tuple(dict(task.spec.kwargs)[n] for n in names)
                    for task in expand(get_experiment(study_id))]

        loops = ([(c, 3, 6, False) for c in (1.0, 0.9, 0.75, 0.6)]
                 + [(1.0, d, 6, False) for d in (2, 3, 4, 5)]
                 + [(1.0, 3, s, False) for s in (2, 6, 16, 64)]
                 + [(1.0, 3, 6, delack) for delack in (False, True)])
        cells = knobs("ABL-FIG4",
                      ("c", "dupack_threshold", "ssthresh", "delayed_acks"))
        assert repr(cells) == repr(list(dict.fromkeys(loops)))
        assert knobs("ABL-FIG4", ("seed",)) == [(23,)] * 11
        grid = [(rate, queue, loss)
                for rate in (250_000, 500_000, 1_000_000)
                for queue in (10, 30, 60)
                for loss in (0.0, 0.02)]
        cells = knobs("EXP-SWEEP", ("rate", "queue_slots", "loss"))
        assert repr(cells) == repr(grid)
        # each case loop ran its cases in this order, with what it held
        # fixed (its seed, or for the star cells the setting that is not
        # EXP-F7's): the study's cells are those cases, named by what the
        # loop varied, at the loop's scale factor
        adversarial_scenarios = [  # (attack, guard) of the old table
            ("baseline", True), ("greedy-acker", False),
            ("greedy-acker", True), ("throttler", False),
            ("throttler", True), ("nak-storm", False), ("nak-storm", True),
            ("impaired", True), ("ack-replay", False), ("ack-replay", True)]
        loops = {
            "EXP-F3": (1.0, {"seed": 7}, [{"link": link}
                                for link in ("non-lossy", "lossy")]),
            "EXP-F4": (1.0, {"seed": 11}, [{"link": link}
                                 for link in ("non-lossy", "lossy")]),
            "EXP-F6": (1.0, {"seed": 13}, [
                {"suppression": s, "rx_loss_aware": a}
                for s, a in ((False, False), (True, False), (True, True))]),
            "EXP-ADV": (0.5, {"seed": 97}, [{"attack": k, "guard": g}
                                  for k, g in adversarial_scenarios]),
            "ABL-MODEL": (0.5, {"seed": 47}, [{"model": m}
                                    for m in ("simple", "padhye")]),
            "ABL-ADSS": (0.5, {"seed": 53}, [{"adaptive_ssthresh": a}
                                   for a in (False, True)]),
            "ABL-TFRC": (0.5, {"seed": 59}, [{"estimator": e}
                                   for e in ("filter", "tfrc")]),
            "ABL-BURST": (0.5, {"seed": 79}, [{"pattern": p}
                                    for p in ("bernoulli", "bursty")]),
            "EXP-FEC": (0.5, {"n_receivers": 60, "joiners": 0, "tcp": False,
                              "duration": 240.0}, [
                {"redundancy": r, "seed": 61 if r is None else 62 + r}
                for r in (None, 0, 1, 2)]),
            "EXP-DTZ": (0.5, {"joiners": 0, "tcp": False,
                              "duration": 120.0}, [
                {"scheme": s, "n_receivers": n, "seed": 67 + i}
                for s in ("eq-naive", "eq-max", "pgmcc")
                for i, n in enumerate((1, 10, 40))]),
            "EXP-MPATH": (0.5, {"seed": 71}, [{"path": p}
                                    for p in ("single", "sprayed")]),
            "EXP-SCALE": (0.5, {"seed": 101}, [
                {"n_receivers": n, "network_elements": ne}
                for n in (25, 50, 100, 200) for ne in (False, True)]),
            "EXP-SCALE-HYBRID": (0.5, {"seed": 101}, [
                {"n": n} for n in (1_000, 10_000, 100_000, 1_000_000)]),
        }
        for study_id, (scale, base, cases) in loops.items():
            study = get_experiment(study_id)
            tasks = expand(study)
            assert study.scale == scale, study_id
            assert [dict(task.spec.kwargs) for task in tasks] == [
                {**case, **base} for case in cases], study_id
            if study.mode == "ablate":
                labels = ["base"] + [",".join(f"{k}={v}" for k, v in
                                              case.items())
                                     for case in cases[1:]]
            else:
                labels = [",".join(f"{k}={v}" for k, v in case.items())
                          for case in cases]
            assert [task.id for task in tasks] == [
                f"{study_id}/{label}" for label in labels], study_id

    def test_padhye_model_flags_lossy_receiver(self):
        cells = study_cells("ABL-MODEL", 0.6)
        assert cells["model=padhye"]["dominant"] == "lossy"
        for cell in cells.values():
            assert cell["rate"] < 500_000

    def test_adaptive_ssthresh_no_starvation(self):
        for cell in study_cells("ABL-ADSS", 0.6).values():
            assert cell["pgm"] > 50_000
            assert cell["tcp"] > 50_000

    def test_loss_estimators_track_link(self):
        for cell in study_cells("ABL-TFRC", 0.6).values():
            # the estimator's time average tracks the loss actually
            # experienced in that run (the nominal 3% has sampling
            # variance at short durations)
            assert abs(cell["loss"] - cell["raw_loss"]) < 0.015
            assert 0.005 < cell["loss"] < 0.08
            # and both keep the session loss-limited, far under 2 Mbit/s
            assert cell["rate"] < 1_000_000


class TestScalability:
    @pytest.fixture(scope="class")
    def points(self):
        """The sessions the EXP-SCALE study runs, at two group sizes."""
        from repro.experiments import scalability

        return {(n, mode): scalability.run_point(
                    scale=0.3, n_receivers=n,
                    network_elements=(mode == "ne")).metrics
                for n in (20, 60) for mode in ("plain", "ne")}

    def test_single_acker_constant_ack_load(self, points):
        for point in points.values():
            assert 0.5 < point["acks_per_data"] < 1.5

    def test_ne_suppression_flattens_nak_growth(self, points):
        ne_growth = points[60, "ne"]["naks"] / max(points[20, "ne"]["naks"], 1)
        plain_growth = points[60, "plain"]["naks"] / max(
            points[20, "plain"]["naks"], 1)
        assert plain_growth > ne_growth
        # flat with NEs, growing with the co-located group without
        assert points[60, "ne"]["naks"] < 3 * max(points[20, "ne"]["naks"], 5)
        assert plain_growth > 1.5

    def test_throughput_group_size_independent(self, points):
        assert points[60, "ne"]["rate"] > 0.85 * points[20, "ne"]["rate"]


class TestFairnessSweep:
    def test_reduced_grid_no_starvation(self):
        study = get_experiment("EXP-SWEEP")
        grid = ((250_000, 10, 0.0), (500_000, 30, 0.02), (1_000_000, 60, 0.0))
        cells = [task.spec.run(0.6 * study.scale).metrics
                 for task in expand(study)
                 if (task.axes_dict["rate"], task.axes_dict["queue_slots"],
                     task.axes_dict["loss"]) in grid]
        assert len(cells) == 3
        for (rate, _, _), cell in zip(grid, cells):
            assert cell["ratio"] < 4.0
            assert cell["pgm"] > 0.05 * rate
            assert cell["tcp"] > 0.05 * rate

    def test_delayed_acks_fair_both_ways(self, abl_fig4):
        for cell_id in ("base", "delayed_acks=True"):
            cell = abl_fig4[cell_id]
            assert cell["ratio"] < 4.0
            assert cell["pgm_shared"] > 50_000
            assert cell["tcp_shared"] > 50_000


class TestRobustness:
    def test_multipath_survives_reordering(self):
        from repro.experiments import robustness

        cells = {path: robustness.run_multipath(scale=0.3, path=path).metrics
                 for path in ("single", "sprayed")}
        assert cells["sprayed"]["stalls"] == 0
        assert cells["sprayed"]["rate"] > 0.4 * cells["single"]["rate"]

    def test_churn_never_wedges(self):
        from repro.experiments import robustness

        result = robustness.run_churn(scale=0.4)
        assert result.metrics["churn_events"] >= 6
        assert result.metrics["rate"] > 100_000
        assert result.metrics["longest_gap"] < 10.0

    def test_bursty_loss_survives(self):
        cells = study_cells("ABL-BURST", 0.6)
        for cell in cells.values():
            assert cell["rate"] > 50_000
        # clustered losses = fewer congestion events = at least as fast
        assert cells["pattern=bursty"]["rate"] > 0.7 * cells["base"]["rate"]

    def test_chaos_survives_clean(self):
        from repro.experiments import robustness

        result = robustness.run_chaos(scale=0.3)
        # every scheduled episode actually fired
        assert result.metrics["faults_fired"] >= 8
        assert result.metrics["link_downs"] >= 3
        assert result.metrics["stalls"] >= 1  # flaps restart, not deadlock
        assert result.metrics["crashes"] == 1
        assert result.metrics["switches"] >= 1  # acker re-elected
        assert result.metrics["rate"] > 50_000
        assert result.metrics["longest_gap"] < 10.0
        assert result.metrics["violations"] == 0


class TestDropToZero:
    @pytest.fixture(scope="class")
    def dtz(self):
        """The sessions of the EXP-DTZ study at N = 1 and 20 (seeds 67
        and 68), and the study's collapse per controller."""
        cells = [({"scheme": scheme, "n_receivers": n},
                  star.run_cell(scale=0.3, seed=seed, scheme=scheme,
                                n_receivers=n, joiners=0, tcp=False,
                                duration=120.0))
                 for scheme in ("eq-naive", "eq-max", "pgmcc")
                 for n, seed in ((1, 67), (20, 68))]
        rates = {(axes["scheme"], axes["n_receivers"]): result.metrics["rate"]
                 for axes, result in cells}
        return rates, star.aggregate_cells(cells)["metrics"]["collapse"]

    def test_naive_aggregation_collapses(self, dtz):
        _, collapse = dtz
        assert collapse["eq-naive"] > 3.0

    def test_pgmcc_group_size_independent(self, dtz):
        rates, collapse = dtz
        assert collapse["pgmcc"] < 1.5
        assert rates["pgmcc", 20] > 100_000

    def test_max_report_group_size_independent(self, dtz):
        _, collapse = dtz
        assert collapse["eq-max"] < 2.0


class TestFecScaling:
    @pytest.fixture(scope="class")
    def fec(self):
        """The EXP-FEC study's four sessions with 24 receivers: RDATA
        (``None``) at seed 61, FEC r at seed 62 + r."""
        return {r: star.run_cell(
                    scale=0.3, seed=61 if r is None else 62 + r,
                    redundancy=r, n_receivers=24, joiners=0, tcp=False,
                    duration=240.0).metrics
                for r in (None, 0, 1, 2)}

    def test_rdata_repair_share_substantial(self, fec):
        assert fec[None]["repair_share"] > 0.05

    def test_fec_sends_no_repairs(self, fec):
        for r in (0, 1, 2):
            assert fec[r]["rdata_sent"] == 0

    def test_redundancy_ladder(self, fec):
        assert (
            fec[0]["mean_residual"]
            > fec[1]["mean_residual"]
            > fec[2]["mean_residual"]
        )
        assert fec[2]["mean_residual"] < 0.01


class TestAdversarial:
    """EXP-ADV: each attack measurably hurts with the guard off and is
    deflected with it on, invariant-clean throughout."""

    @pytest.fixture(scope="class")
    def m(self):
        # 0.75 is the shortest session scale at which the guard-off
        # damage has had time to show against the attack-free baseline:
        # at 0.5 the starved TCP flow still holds 0.37-0.57 of its
        # baseline over seeds 1-20 and 97, at 0.75 at most 0.28
        return {cell.replace("attack=", "").replace(",guard=", ":"): metrics
                for cell, metrics in study_cells("EXP-ADV", 1.5).items()}

    def test_honest_groups_never_trip_the_guard(self, m):
        assert m["baseline:True"]["quarantines"] == 0
        assert m["impaired:True"]["quarantines"] == 0  # honest loss is no crime

    def test_greedy_acker_deflected(self, m):
        baseline = m["baseline:True"]["compliant_bps"]
        assert m["greedy-acker:False"]["compliant_bps"] < 0.6 * baseline
        assert (m["greedy-acker:False"]["tcp_bps"]
                < 0.5 * m["baseline:True"]["tcp_bps"])
        assert m["greedy-acker:True"]["compliant_bps"] > 0.9 * baseline
        assert m["greedy-acker:True"]["quarantines"] >= 1
        assert not m["greedy-acker:True"]["attacker_is_acker"]

    def test_throttler_evicted(self, m):
        off = m["throttler:False"]["compliant_bps"]
        assert off < 0.5 * m["baseline:True"]["compliant_bps"]
        assert m["throttler:True"]["compliant_bps"] > 1.5 * off

    def test_nak_storm_contained(self, m):
        assert m["nak-storm:True"]["quarantines"] >= 1
        assert (m["nak-storm:True"]["compliant_bps"]
                > 2.0 * m["nak-storm:False"]["compliant_bps"])

    def test_ack_replay_deduplicated_without_suspicion(self, m):
        # stale duplicates distort the sender's clock guard-off; the
        # TTL-bounded dedup lands back on the no-replay anchor
        anchor = m["impaired:True"]["compliant_bps"]
        assert abs(m["ack-replay:False"]["compliant_bps"] - anchor) > 0.10 * anchor
        assert abs(m["ack-replay:True"]["compliant_bps"] - anchor) < 0.15 * anchor
        assert m["ack-replay:True"]["quarantines"] == 0

    def test_invariant_clean_and_reliable_with_guard_on(self, m):
        assert len(m) == 10
        assert not any(cell["invariant_violations"] for cell in m.values())
        # guard-off cells are the attack showcase and may legitimately
        # exhaust NAK retries; guard-on never sacrifices reliability
        guard_on = [cell for name, cell in m.items() if name.endswith(":True")]
        assert len(guard_on) == 6
        assert not any(cell["unrecoverable"] for cell in guard_on)
