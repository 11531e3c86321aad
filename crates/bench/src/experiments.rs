//! One function per table/figure of the paper, regenerating it from a
//! simulated scenario. See DESIGN.md §4 for the experiment index.

use crate::harness::{SimData, World, SERIES};
use crate::report::{pct, row, Report};
use mt_core::render::HilbertMap;
use mt_core::{analysis, baseline, classifier, eval, pipeline, PipelineEngine};
use mt_flow::sampling::thin_records;
use mt_flow::TrafficStats;
use mt_telescope::{port_overlap, PortRanking, TelescopeWeekStats};
use mt_types::{Block24Set, Continent, Day, NetworkType, Prefix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1", "table2", "table3", "fig2", "table4", "fig3", "table5", "table6", "fig4", "fig5",
    "fig6", "table7", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Runs one experiment by id.
pub fn run(id: &str, world: &World, data: &SimData) -> Option<Report> {
    match id {
        "table1" => Some(table1(world, data)),
        "table2" => Some(table2(world, data)),
        "table3" => Some(table3(world, data)),
        "fig2" => Some(fig2(world, data)),
        "table4" => Some(table4(world, data)),
        "fig3" => Some(fig3(world, data)),
        "table5" => Some(table5(world, data)),
        "table6" => Some(table6(world, data)),
        "fig4" => Some(fig4(world, data)),
        "fig5" => Some(fig5(world, data)),
        "fig6" => Some(fig6(world, data)),
        "table7" => Some(table7(world, data)),
        "fig7" => Some(fig7(world, data)),
        "fig8" => Some(fig8(world, data)),
        "fig9" => Some(fig9(world, data)),
        "fig10" => Some(fig10(world, data)),
        "fig11" => Some(fig11(world, data)),
        "fig12" => Some(fig12(world, data)),
        _ => None,
    }
}

fn day0_result<'a>(data: &'a SimData, code: &str) -> &'a pipeline::PipelineResult {
    data.day0_results
        .iter()
        .find(|(c, _)| c == code)
        .map(|(_, r)| r)
        .unwrap_or_else(|| panic!("day-0 result for {code} missing (needs.vp_day0)"))
}

/// Table 1 — IXP roster and basic statistics.
fn table1(world: &World, data: &SimData) -> Report {
    let mut r = Report::new("table1", "Table 1: IXPs — basic statistics");
    r.line(row(
        &[
            "IXP".into(),
            "Region".into(),
            "Members".into(),
            "Rate 1:N".into(),
            "dstVisASes".into(),
            "Sampled flows (day 0)".into(),
        ],
        12,
    ));
    for vp in &world.net.vantage_points {
        let flows = data
            .day0_flows
            .get(&vp.code)
            .map(|f| f.to_string())
            .unwrap_or_else(|| "-".into());
        r.line(row(
            &[
                vp.code.clone(),
                vp.region.abbrev().into(),
                vp.members.to_string(),
                vp.sampling_rate.to_string(),
                vp.visible_dst_count().to_string(),
                flows,
            ],
            12,
        ));
    }
    r
}

/// Table 2 — operational telescope statistics over the window.
fn table2(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "table2",
        "Table 2: Operational telescopes — basic statistics",
    );
    r.line(row(
        &[
            "Code".into(),
            "Size /24s".into(),
            "Daily /24 pkts".into(),
            "TCP share".into(),
            "Avg TCP size".into(),
        ],
        14,
    ));
    for (i, t) in world.net.telescopes.iter().enumerate() {
        let week = TelescopeWeekStats::new(&t.code, t.num_blocks, data.telescope_days[i].clone());
        r.line(row(
            &[
                t.code.clone(),
                t.num_blocks.to_string(),
                format!("{:.0}", week.daily_pkts_per_block()),
                pct(week.tcp_share()),
                format!("{:.2} B", week.avg_tcp_size().unwrap_or(0.0)),
            ],
            14,
        ));
    }
    r.blank();
    r.line("(volumes are 1:1000 of the paper's absolute numbers; see EXPERIMENTS.md)");
    r
}

/// Table 3 — classifier calibration sweep on the ISP ground truth.
fn table3(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "table3",
        "Table 3: Tuning the packet-size fingerprint (median vs average)",
    );
    let stats = data.isp_stats.as_ref().expect("needs.isp_day0");
    let isp_as = data.isp_as.expect("needs.isp_day0");
    let scope: Block24Set = world
        .net
        .announcements
        .iter()
        .filter(|a| a.as_idx == isp_as)
        .flat_map(|a| a.prefix.blocks24())
        .collect();
    let labels = classifier::CalibrationLabels::derive(stats, &scope, 2_000);
    r.line(format!(
        "ISP ground truth: {} receiving /24s, {} labeled dark, {} labeled active",
        labels.receiving,
        labels.dark.len(),
        labels.active.len()
    ));
    r.blank();
    r.line(row(
        &[
            "Feature".into(),
            "Thresh".into(),
            "FPR".into(),
            "FNR".into(),
            "TPR".into(),
            "TNR".into(),
            "F1".into(),
        ],
        10,
    ));
    let rows = classifier::sweep(stats, &labels, &[40, 42, 44, 46]);
    for sr in &rows {
        let m = sr.matrix;
        r.line(row(
            &[
                match sr.feature {
                    classifier::ClassifierFeature::Median => "median".into(),
                    classifier::ClassifierFeature::Average => "average".into(),
                },
                format!("{} B", sr.threshold),
                pct(m.fpr()),
                pct(m.fnr()),
                pct(m.tpr()),
                pct(m.tnr()),
                pct(m.f1()),
            ],
            10,
        ));
    }
    let best = classifier::pick_best(&rows).unwrap();
    r.blank();
    r.line(format!(
        "winner: {:?} at {} B (the paper picks average/44 for its lower FPR)",
        best.feature, best.threshold
    ));
    r
}

/// Figure 2 — the inference funnel.
fn fig2(_world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig2",
        "Figure 2: Inference pipeline funnel (all IXPs, day 0)",
    );
    let all = day0_result(data, "All");
    r.line(format!(
        "{:>32}: {}",
        "destination /24s seen",
        all.funnel.seen()
    ));
    let labels = [
        "after 1. TCP traffic",
        "after 2. average <= 44 bytes",
        "after 3. clean source remains",
        "after 4. not private/reserved",
        "after 5. globally routed",
        "after 6. volume cap",
    ];
    for (label, stage) in labels.into_iter().zip(all.funnel.stages()) {
        r.line(format!("{:>32}: {}", label, stage.kept));
    }
    r.blank();
    r.line(format!(
        "{:>32}: {}",
        "darknets (meta-telescope)",
        all.dark.len()
    ));
    r.line(format!("{:>32}: {}", "unclean darknets", all.unclean.len()));
    r.line(format!("{:>32}: {}", "graynets", all.gray.len()));
    r
}

/// Table 4 — meta-telescope coverage of the operational telescopes.
fn table4(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "table4",
        "Table 4: Coverage of the operational telescopes (1 vs 7 days; CE1 vs All)",
    );
    let final_days = data.cumulative.last().map(|p| p.days).unwrap_or(1);
    r.line(row(
        &[
            "Code".into(),
            "Size".into(),
            "1d CE1".into(),
            "1d All".into(),
            format!("{final_days}d CE1"),
            format!("{final_days}d All"),
        ],
        10,
    ));
    for t in &world.net.telescopes {
        let mut cells = vec![t.code.clone(), t.num_blocks.to_string()];
        for days in [1, final_days] {
            for label in ["CE1", "All"] {
                let dark = data
                    .window_darks
                    .get(&(label.to_owned(), days, true))
                    .expect("needs.cumulative");
                let cov = eval::TelescopeCoverage::measure(dark, t, &world.net, Day(0), days);
                cells.push(cov.inferred.to_string());
            }
        }
        // Reorder: collected as (1d CE1, 1d All, Nd CE1, Nd All) already.
        r.line(row(&cells, 10));
    }
    r.blank();
    r.line("(windows use the Section 7.2 spoofing tolerance; volume-cap ablation:");
    r.line(" rerun with --volume-threshold to see telescope blocks reappear)");
    r
}

/// Figure 3 — Hilbert curve of the region containing a telescope.
fn fig3(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig3",
        "Figure 3: Hilbert map of the address region containing a telescope",
    );
    let final_days = data.cumulative.last().map(|p| p.days).unwrap_or(1);
    let dark = data
        .window_darks
        .get(&("All".to_owned(), final_days, true))
        .expect("needs.cumulative");
    let t = &world.net.telescopes[0];
    // The covering prefix of the telescope's dedicated announcement.
    let covering = world
        .net
        .announcements
        .iter()
        .find(|a| a.telescope == Some(0))
        .map(|a| a.prefix)
        .expect("telescope announcement exists");
    let map = HilbertMap::new(covering);
    let boundary: Block24Set = t.blocks().collect();
    let inside = dark.intersection_len(&boundary);
    let outside = dark.count_in_prefix(covering) - inside;
    r.line(format!(
        "covering prefix {covering}: {inside} inferred /24s inside the telescope, {outside} outside"
    ));
    r.blank();
    r.line("legend: '@' inferred+telescope, '#' inferred, '+' telescope only, '·' other");
    r.line(map.ascii(dark, Some(&boundary)));
    r.files.push((
        "fig3_telescope_region.ppm".to_owned(),
        map.ppm(dark, Some(&boundary)),
    ));
    r
}

/// Table 5 — top-10 TCP ports per telescope plus the meta-telescope.
fn table5(world: &World, data: &SimData) -> Report {
    let mut r = Report::new("table5", "Table 5: Top 10 TCP ports by site");
    let mut rankings = Vec::new();
    for (i, t) in world.net.telescopes.iter().enumerate() {
        let week = TelescopeWeekStats::new(&t.code, t.num_blocks, data.telescope_days[i].clone());
        rankings.push(PortRanking::top_n(&t.code, &week.port_counts(), 10));
    }
    if let Some(matrix) = &data.port_matrix {
        let mut counts = std::collections::HashMap::new();
        for (&(port, _), &pkts) in &matrix.by_region {
            *counts.entry(port).or_default() += pkts;
        }
        rankings.push(PortRanking::top_n("meta-telescope", &counts, 10));
    }
    let mut header = vec!["Rank".to_owned()];
    header.extend(rankings.iter().map(|rk| rk.label.clone()));
    r.line(row(&header, 16));
    for rank in 0..10 {
        let mut cells = vec![format!("#{}", rank + 1)];
        for rk in &rankings {
            cells.push(
                rk.ranked
                    .get(rank)
                    .map(|&(p, _)| p.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        r.line(row(&cells, 16));
    }
    if rankings.len() >= 2 {
        r.blank();
        let meta = rankings.last().unwrap();
        for rk in &rankings[..rankings.len() - 1] {
            r.line(format!(
                "overlap {} vs meta-telescope: {}/10",
                rk.label,
                port_overlap(rk, meta)
            ));
        }
    }
    r
}

/// Table 6 — inferred prefixes per vantage point (after aux scrubbing).
fn table6(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "table6",
        "Table 6: Meta-telescope prefixes per vantage point (day 0, aux-scrubbed)",
    );
    r.line(row(
        &[
            "IXP".into(),
            "#prefixes".into(),
            "#ASes".into(),
            "#Countries".into(),
            "FP vs truth".into(),
        ],
        12,
    ));
    for (code, result) in &data.day0_results {
        let scrubbed = eval::scrub(&result.dark, &world.aux);
        let s = analysis::summarize(code, &scrubbed, &world.net);
        let gt = eval::GroundTruthReport::evaluate(&scrubbed, &world.net, Day(0), 1);
        r.line(row(
            &[
                code.clone(),
                s.blocks.to_string(),
                s.ases.to_string(),
                s.countries.to_string(),
                pct(1.0 - gt.precision()),
            ],
            12,
        ));
    }
    r
}

/// Figure 4 — world map data: blocks per country.
fn fig4(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig4",
        "Figure 4 (and 13-15): Meta-telescope /24s per country (world-map data)",
    );
    for code in ["CE1", "NA1", "All"] {
        let result = day0_result(data, code);
        let scrubbed = eval::scrub(&result.dark, &world.aux);
        let counts = analysis::by_country(&scrubbed, &world.net);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        r.line(format!(
            "{code}: {} countries, {} blocks — top 12:",
            counts.len(),
            total
        ));
        let line: Vec<String> = counts
            .iter()
            .take(12)
            .map(|(c, n)| format!("{c}={n}"))
            .collect();
        r.line(format!("  {}", line.join(" ")));
    }
    r
}

/// Figure 5 — Hilbert maps of the /8 with the largest inferred dark mass.
fn fig5(_world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig5",
        "Figure 5: Hilbert maps of a /8 with large inferred dark ranges (CE1 / NA1 / All)",
    );
    let all = &day0_result(data, "All").dark;
    // Pick the /8-aligned space with the most inferred dark blocks.
    let mut best: Option<(Prefix, usize)> = None;
    for octet in 1..=223u8 {
        let Ok(prefix) = Prefix::new(mt_types::Ipv4::new(octet, 0, 0, 0), 8) else {
            continue;
        };
        let n = all.count_in_prefix(prefix);
        if best.is_none_or(|(_, b)| n > b) {
            best = Some((prefix, n));
        }
    }
    let (covering, blocks) = best.expect("some /8 has inferred blocks");
    r.line(format!(
        "selected {covering} with {blocks} inferred /24s (All)"
    ));
    let map = HilbertMap::new(covering);
    for code in ["CE1", "NA1", "All"] {
        let dark = &day0_result(data, code).dark;
        r.line(format!(
            "  {code}: density {:.2}% of the /8's /24s inferred dark",
            map.density(dark) * 100.0
        ));
        r.files
            .push((format!("fig5_{code}.ppm"), map.ppm(dark, None)));
    }
    r
}

/// Figure 6 — Hilbert maps of the /8 containing the known telescope.
fn fig6(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig6",
        "Figure 6: Hilbert maps of the /8 containing a known telescope (CE1 / NA1 / All)",
    );
    let t = &world.net.telescopes[0];
    let covering = Prefix::containing(t.first_block.base(), 8);
    let boundary: Block24Set = t.blocks().collect();
    let map = HilbertMap::new(covering);
    r.line(format!(
        "covering {covering}; telescope {} occupies {} /24s",
        t.code, t.num_blocks
    ));
    for code in ["CE1", "NA1", "All"] {
        let dark = &day0_result(data, code).dark;
        let inside = dark.intersection_len(&boundary);
        r.line(format!(
            "  {code}: {inside}/{} telescope /24s inferred; /8 density {:.2}%",
            t.num_blocks,
            map.density(dark) * 100.0
        ));
        r.files
            .push((format!("fig6_{code}.ppm"), map.ppm(dark, Some(&boundary))));
    }
    r
}

/// Table 7 — inferred prefixes per network type and continent.
fn table7(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "table7",
        "Table 7: Meta-telescope /24s per network type and continent (All, scrubbed)",
    );
    let all = day0_result(data, "All");
    let scrubbed = eval::scrub(&all.dark, &world.aux);
    let m = analysis::TypeContinentMatrix::build(&scrubbed, &world.net);
    let mut header = vec!["Region".to_owned(), "Total".to_owned()];
    header.extend(NetworkType::ALL.iter().map(|t| t.label().to_owned()));
    r.line(row(&header, 12));
    let mut all_cells = vec!["All".to_owned(), m.total().to_string()];
    all_cells.extend(
        NetworkType::ALL
            .iter()
            .map(|&t| m.type_total(t).to_string()),
    );
    r.line(row(&all_cells, 12));
    for &c in &Continent::ALL {
        let mut cells = vec![c.abbrev().to_owned(), m.continent_total(c).to_string()];
        cells.extend(NetworkType::ALL.iter().map(|&t| m.get(c, t).to_string()));
        r.line(row(&cells, 12));
    }
    r
}

/// Figure 7 (and 16/17) — prefix-index ECDFs.
fn fig7(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig7",
        "Figure 7 (and 16/17): Prefix index — share of each announcement inferred dark",
    );
    let all = &day0_result(data, "All").dark;
    r.line("per announced prefix length: share of announcements whose dark share exceeds x");
    r.line(row(
        &[
            "len".into(),
            "count".into(),
            ">5%".into(),
            ">10%".into(),
            ">20%".into(),
            ">40%".into(),
            "median".into(),
        ],
        9,
    ));
    for len in 8..=16u8 {
        let shares = analysis::prefix_index(all, &world.net, len);
        if shares.is_empty() {
            continue;
        }
        let exceed = |x: f64| pct(1.0 - analysis::ecdf(&shares, x));
        let median = shares[shares.len() / 2];
        r.line(row(
            &[
                format!("/{len}"),
                shares.len().to_string(),
                exceed(0.05),
                exceed(0.10),
                exceed(0.20),
                exceed(0.40),
                pct(median),
            ],
            9,
        ));
    }
    r.blank();
    r.line("median dark share per network type (Figure 16):");
    let by_type = analysis::share_by_group(all, &world.net, |a| a.network_type);
    for ty in NetworkType::ALL {
        if let Some(shares) = by_type.get(&ty) {
            r.line(format!(
                "  {:<12} {}",
                ty.label(),
                pct(shares[shares.len() / 2])
            ));
        }
    }
    r.blank();
    r.line("median dark share per continent (Figure 17):");
    let by_cont = analysis::share_by_group(all, &world.net, |a| a.continent);
    for c in Continent::ALL {
        if let Some(shares) = by_cont.get(&c) {
            r.line(format!(
                "  {:<12} {}",
                c.abbrev(),
                pct(shares[shares.len() / 2])
            ));
        }
    }
    r
}

/// Figure 8 — daily variability of inferred prefixes.
fn fig8(_world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig8",
        "Figure 8: Daily meta-telescope prefixes (CE1 / NA1 / All)",
    );
    let mut header = vec!["day".to_owned(), "weekday".to_owned()];
    header.extend(SERIES.iter().map(|s| s.to_string()));
    r.line(row(&header, 10));
    for point in &data.daily {
        let mut cells = vec![
            point.day.0.to_string(),
            format!("{:?}", point.day.weekday()),
        ];
        for label in SERIES {
            cells.push(
                point
                    .dark
                    .get(label)
                    .map(|v| v.to_string())
                    .unwrap_or_default(),
            );
        }
        r.line(row(&cells, 10));
    }
    r.blank();
    r.line("(weekend days infer more: offices stop originating traffic)");
    r
}

/// Figure 9 — cumulative windows with and without spoofing tolerance.
fn fig9(_world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig9",
        "Figure 9: Effect of spoofing over consecutive days (strict vs tolerance)",
    );
    let mut header = vec!["window".to_owned()];
    for label in SERIES {
        header.push(format!("{label} strict"));
        header.push(format!("{label}+tol"));
    }
    header.push("tol pkts (All)".to_owned());
    r.line(row(&header, 12));
    for point in &data.cumulative {
        let mut cells = vec![format!("0-{}", point.days - 1)];
        for label in SERIES {
            cells.push(point.strict[label].to_string());
            cells.push(point.tolerant[label].to_string());
        }
        cells.push(point.tolerance["All"].to_string());
        r.line(row(&cells, 12));
    }
    r
}

/// Figure 10 — the sub-sampling sweep.
fn fig10(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig10",
        "Figure 10: Effect of sub-sampling the day-0 flow data (all IXPs)",
    );
    let records = data.records_day0.as_ref().expect("needs.records_day0");
    let rib = world.net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();
    let rate = world.sampling_rate();
    r.line(row(
        &[
            "factor".into(),
            "flows".into(),
            "packets".into(),
            "#dark".into(),
            "FP share".into(),
        ],
        12,
    ));
    for factor in [1u32, 2, 4, 8, 16, 32, 64, 128, 180, 256] {
        let thinned = thin_records(records, factor, &mut StdRng::seed_from_u64(world.seed));
        let stats = TrafficStats::from_records(&thinned);
        let result = PipelineEngine::standard().run(&stats, &rib, rate * factor, 1, &pc);
        let gt = eval::GroundTruthReport::evaluate(&result.dark, &world.net, Day(0), 1);
        let packets: u64 = thinned.iter().map(|f| f.packets).sum();
        r.line(row(
            &[
                factor.to_string(),
                thinned.len().to_string(),
                packets.to_string(),
                result.dark.len().to_string(),
                if result.dark.is_empty() {
                    "-".into()
                } else {
                    pct(1.0 - gt.precision())
                },
            ],
            12,
        ));
    }
    r.blank();
    r.line("(moderate thinning sheds spoofed single-packet records; heavy thinning");
    r.line(" blinds the inference entirely — the paper's sweet-spot observation)");
    r
}

/// Figure 11 (and 18) — top ports per world region.
fn fig11(_world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig11",
        "Figure 11 (and 18): Port activity per world region (meta-telescope traffic)",
    );
    let m = data.port_matrix.as_ref().expect("needs.dark_ports_day0");
    let ports = m.union_top_ports_by_region(8);
    let mut header = vec!["port".to_owned()];
    header.extend(Continent::ALL.iter().map(|c| c.abbrev().to_owned()));
    r.line("share within each region's meta-telescope traffic:");
    r.line(row(&header, 8));
    for &port in ports.iter().take(16) {
        let mut cells = vec![port.to_string()];
        for c in Continent::ALL {
            let share = m.region_share(port, c);
            cells.push(if share > 0.0005 {
                pct(share)
            } else {
                "-".into()
            });
        }
        r.line(row(&cells, 8));
    }
    r.blank();
    r.line("share relative to ALL meta-telescope traffic (Figure 18):");
    r.line(row(&header, 8));
    for &port in ports.iter().take(16) {
        let mut cells = vec![port.to_string()];
        for c in Continent::ALL {
            let share = m.global_share(port, c);
            cells.push(if share > 0.0005 {
                pct(share)
            } else {
                "-".into()
            });
        }
        r.line(row(&cells, 8));
    }
    r
}

/// Figure 12 (and 19/20) — top ports per network type.
fn fig12(_world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "fig12",
        "Figure 12 (and 19/20): Port activity per network type",
    );
    let m = data.port_matrix.as_ref().expect("needs.dark_ports_day0");
    let ports = m.union_top_ports_by_region(8);
    let mut header = vec!["port".to_owned()];
    header.extend(NetworkType::ALL.iter().map(|t| t.label().to_owned()));
    r.line(row(&header, 12));
    for &port in ports.iter().take(12) {
        let mut cells = vec![port.to_string()];
        for t in NetworkType::ALL {
            cells.push(pct(m.type_share(port, t)));
        }
        r.line(row(&cells, 12));
    }
    for region in [Continent::NorthAmerica, Continent::Europe] {
        r.blank();
        r.line(format!(
            "network types within {} (Figure {}):",
            region.abbrev(),
            if region == Continent::NorthAmerica {
                20
            } else {
                19
            }
        ));
        r.line(row(&header, 12));
        for &port in ports.iter().take(12) {
            let mut cells = vec![port.to_string()];
            for t in NetworkType::ALL {
                cells.push(pct(m.region_type_share(port, region, t)));
            }
            r.line(row(&cells, 12));
        }
    }
    r
}

/// The operational monitor list: the final (scrubbed, stable) dark set
/// compiled into CIDR prefixes — the "only a small number of subnets
/// needs to be further monitored" product of the paper's Section 5.
pub fn monitor_report(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "monitor",
        "Operational product: aggregated CIDR monitor list (All, scrubbed)",
    );
    let final_days = data.cumulative.last().map(|p| p.days).unwrap_or(1);
    let dark = data
        .window_darks
        .get(&("All".to_owned(), final_days, true))
        .cloned()
        .unwrap_or_else(|| day0_result(data, "All").dark.clone());
    let scrubbed = eval::scrub(&dark, &world.aux);
    let cidrs = scrubbed.aggregate();
    r.line(format!(
        "{} meta-telescope /24s aggregate into {} CIDR prefixes",
        scrubbed.len(),
        cidrs.len()
    ));
    let mut by_len: std::collections::BTreeMap<u8, usize> = std::collections::BTreeMap::new();
    for p in &cidrs {
        *by_len.entry(p.len()).or_default() += 1;
    }
    for (len, n) in &by_len {
        r.line(format!("  /{len}: {n}"));
    }
    let monitored_share = scrubbed.len() as f64 / world.net.announced_blocks().max(1) as f64;
    r.line(format!(
        "monitoring {:.1}% of the announced space suffices (paper: ~5%)",
        monitored_share * 100.0
    ));
    // Ship the list itself as a side file.
    let mut list = String::new();
    for p in &cidrs {
        list.push_str(&p.to_string());
        list.push('\n');
    }
    r.files
        .push(("monitor_list.cidr".to_owned(), list.into_bytes()));
    r
}

/// The origin-only baseline comparison (DESIGN.md ablation; not a paper
/// exhibit but referenced by EXPERIMENTS.md).
pub fn baseline_report(world: &World, data: &SimData) -> Report {
    let mut r = Report::new(
        "baseline",
        "Ablation: origin-only baseline vs the full pipeline (day 0, All)",
    );
    let stats = data.day0_all_stats.as_ref().expect("day-0 stats retained");
    let rib = world.net.rib(Day(0));
    let cmp = baseline::BaselineComparison::run(
        stats,
        &rib,
        world.sampling_rate(),
        1,
        &pipeline::PipelineConfig::default(),
    );
    let gt_base = eval::GroundTruthReport::evaluate(&cmp.baseline, &world.net, Day(0), 1);
    let gt_pipe = eval::GroundTruthReport::evaluate(&cmp.pipeline, &world.net, Day(0), 1);
    r.line(format!(
        "origin-only baseline: {} blocks, precision {}",
        cmp.baseline.len(),
        pct(gt_base.precision())
    ));
    r.line(format!(
        "full pipeline:        {} blocks, precision {}",
        cmp.pipeline.len(),
        pct(gt_pipe.precision())
    ));
    r.line(format!(
        "blocks only the baseline accepts (its false-positive pool): {}",
        cmp.baseline_only().len()
    ));
    // The Glatz-style one-way comparator needs flow-level records.
    if let Some(records) = &data.records_day0 {
        let one_way = baseline::one_way_blocks(records, &rib);
        let gt = eval::GroundTruthReport::evaluate(&one_way, &world.net, Day(0), 1);
        r.line(format!(
            "one-way (Glatz) baseline: {} blocks, precision {} (reverse flows are\n\
             often simply unsampled at IXP rates, inflating its false positives)",
            one_way.len(),
            pct(gt.precision())
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{simulate, Needs, Profile};

    #[test]
    fn all_experiments_run_on_the_small_profile() {
        let world = World::new(Profile::Small, 3);
        let mut needs = Needs::everything();
        needs.days = 2; // keep the test quick; windows still exist
        let data = simulate(&world, needs);
        for id in ALL_IDS {
            let report = run(id, &world, &data).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(!report.body.is_empty(), "{id} produced no output");
        }
        let b = baseline_report(&world, &data);
        assert!(!b.body.is_empty());
    }

    #[test]
    fn unknown_experiment_is_none() {
        let world = World::new(Profile::Small, 3);
        let data = simulate(
            &world,
            Needs {
                days: 1,
                vp_day0: true,
                ..Needs::default()
            },
        );
        assert!(run("table99", &world, &data).is_none());
    }
}
