//! The differential harness's generator and reference.
//!
//! A seeded [`case`] is a small description of a query over [`tables`]:
//! `fact`, two dimension tables (`dim1` rows reference `dim2`) and `ev`, an
//! event log sorted by `(user, ts)`. Two interpreters read it:
//! [`Case::to_query`] builds it with the public `Query` builder alone, and
//! [`Case::reference`] evaluates it row at a time — nested-loop joins, a
//! `BTreeMap` group-by, one loop per user for the stateful operators —
//! sharing no code with the engine. [`mutate`] rewrites one part of a
//! lowered plan, for the static-vs-runtime agreement check.
//!
//! **Exactness.** Every value is an integer: `i32`, `i64` and date columns,
//! a dictionary string in `fact` and in `ev` (read, compared and grouped by
//! its code), and `f64` columns that hold integers. Expressions combine
//! them with `+ − ×` and small integer literals, and no product or sum comes
//! near 2^53, so every `f64` operation on them is exact. A `Sum` is then the
//! same number whichever packet went to whichever worker in whatever order,
//! `Avg` divides two exact numbers once, and rows compare with `==` — no
//! tolerance.

use std::collections::BTreeMap;

use hape::core::{JoinAlgo, PipeOp, Query};
use hape::ops::{col, lit, AggFunc, Expr, GroupKey, NamedExpr, StatefulAgg};
use hape::storage::{Batch, Column, DataType, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Parts;
use DataType::{Date, Str, F64, I32, I64};

/// The string columns' vocabulary (`fact.f_tag`, `ev.event`).
const WORDS: [&str; 5] = ["view", "cart", "buy", "search", "visit"];

fn pick<T: Copy>(r: &mut StdRng, xs: &[T]) -> T {
    xs[r.gen_range(0..xs.len())]
}

/// Per table: its rows and, per column, its type and the range its values
/// are drawn from (a string's value indexes [`WORDS`]). `f_hi`'s domain
/// passes the group-id kernel's dense limit (2^14); keys repeat and miss,
/// so a probe matches no, one or several build rows.
type Spec = (&'static str, usize, &'static [(&'static str, DataType, i64, i64)]);

#[rustfmt::skip]
const SPEC: [Spec; 4] = [
    ("fact", 4_096, &[("f_d1", I32, 0, 560), ("f_d2", I32, 0, 70), ("f_hi", I64, 0, 40_000),
        ("f_day", Date, 0, 400), ("f_qty", F64, 1, 21), ("f_amt", F64, -50, 51),
        ("f_tag", Str, 0, 5)]),
    ("dim1", 512, &[("d1_k", I32, 0, 500), ("d1_d2", I32, 0, 70), ("d1_w", F64, 0, 10),
        ("d1_g", I32, 0, 6)]),
    ("dim2", 64, &[("d2_k", I32, 0, 64), ("d2_w", F64, -5, 6), ("d2_g", I32, 0, 4)]),
    ("ev", 4_000, &[("user", I32, 0, 250), ("ts", I64, 0, 60_000), ("event", Str, 0, 5),
        ("ev_v", F64, 0, 10)]),
];

/// The four tables of [`SPEC`]; the event log sorted by `(user, ts)`, as the
/// stateful operators require.
pub fn tables(seed: u64) -> Vec<Table> {
    let r = &mut StdRng::seed_from_u64(seed);
    let table = |(name, n, cols): Spec, r: &mut StdRng| {
        let mut rows: Vec<Vec<i64>> =
            (0..n).map(|_| cols.iter().map(|c| r.gen_range(c.2..c.3)).collect()).collect();
        if name == "ev" {
            rows.sort_unstable();
        }
        let column = |i: usize, t: DataType| {
            let v = rows.iter().map(|row| row[i]);
            match t {
                I32 | Date => Column::from_i32(v.map(|x| x as i32).collect()),
                I64 => Column::from_i64(v.collect()),
                F64 => Column::from_f64(v.map(|x| x as f64).collect()),
                Str => Column::from_strs(v.map(|x| WORDS[x as usize])),
            }
        };
        let columns = cols.iter().enumerate().map(|(i, c)| column(i, c.1)).collect();
        Table::new(name, Schema::new(cols.iter().map(|c| (c.0, c.1))), Batch::new(columns))
    };
    SPEC.into_iter().map(|spec| table(spec, r)).collect()
}

/// Operators over one scanned table: a query short of its aggregation.
#[derive(Clone, Debug)]
pub struct Chain {
    pub table: &'static str,
    pub ops: Vec<Op>,
}

#[derive(Clone, Debug)]
pub enum Op {
    Filter(NamedExpr),
    Select(Vec<(&'static str, NamedExpr)>),
    /// Join a build side on probe key = build key.
    Join(Chain, &'static str, &'static str, JoinAlgo),
    /// Over `ev`: per user, sessions split at gaps wider than this.
    Sessionize(i64),
    /// Over `ev`: per user, whether these events occur in order.
    SequenceMatch(Vec<&'static str>),
}

/// One generated query.
#[derive(Clone, Debug)]
pub struct Case {
    pub name: String,
    pub chain: Chain,
    pub group_by: Vec<&'static str>,
    pub aggs: Vec<(AggFunc, NamedExpr)>,
    /// Run on GPUs too small for the hash tables it probes.
    pub scaled: bool,
}

impl Case {
    pub fn to_query(&self) -> Query {
        self.chain.query(&self.name).group_by(&self.group_by).agg(self.aggs.clone())
    }

    /// The answer, row at a time: rows sorted by group key, like a report's.
    pub fn reference(&self, tables: &[Table]) -> Vec<(GroupKey, Vec<f64>)> {
        let rel = self.chain.eval(tables);
        let keys: Vec<usize> = self.group_by.iter().map(|g| rel.at(g)).collect();
        let mut groups: BTreeMap<GroupKey, Vec<Vec<f64>>> = BTreeMap::new();
        for row in &rel.rows {
            let mut key = GroupKey::default();
            key.iter_mut().zip(&keys).for_each(|(k, &i)| *k = row[i] as i64);
            let args = groups.entry(key).or_insert_with(|| vec![Vec::new(); self.aggs.len()]);
            for (vals, (_, e)) in args.iter_mut().zip(&self.aggs) {
                vals.push(eval(e, &rel, row, tables));
            }
        }
        let fold = |f: AggFunc, v: &[f64]| match f {
            AggFunc::Count => v.len() as f64,
            AggFunc::Sum => v.iter().sum(),
            AggFunc::Min => v.iter().copied().fold(f64::INFINITY, f64::min),
            AggFunc::Max => v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFunc::Avg => v.iter().sum::<f64>() / v.len() as f64,
        };
        let values =
            |args: Vec<Vec<f64>>| self.aggs.iter().zip(args).map(|(a, v)| fold(a.0, &v));
        groups.into_iter().map(|(key, args)| (key, values(args).collect())).collect()
    }
}

/// Column names and rows of integer-valued `f64`s.
struct Rel {
    names: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Rel {
    fn at(&self, name: &str) -> usize {
        self.names.iter().position(|n| n == name).unwrap_or_else(|| panic!("no {name}"))
    }
}

impl Chain {
    fn query(&self, name: &str) -> Query {
        self.ops.iter().fold(Query::new(name).from_table(self.table), |q, op| match op {
            Op::Filter(p) => q.filter(p.clone()),
            Op::Select(items) => q.select(items.clone()),
            Op::Join(build, probe, key, algo) => {
                q.join(build.query(build.table), *probe, *key, *algo)
            }
            Op::Sessionize(gap) => q.sessionize("user", "ts", *gap),
            Op::SequenceMatch(pattern) => q.sequence_match("user", "ts", "event", pattern),
        })
    }

    fn eval(&self, tables: &[Table]) -> Rel {
        let t = tables.iter().find(|t| t.name == self.table).expect("a generated table");
        let cols: Vec<Vec<f64>> = t.data.columns.iter().map(values).collect();
        let rows = (0..t.rows()).map(|i| cols.iter().map(|c| c[i]).collect()).collect();
        let mut rel =
            Rel { names: t.schema.fields.iter().map(|f| f.name.clone()).collect(), rows };
        for op in &self.ops {
            rel = match op {
                Op::Filter(p) => {
                    let keep = |row: &&Vec<f64>| eval(p, &rel, row, tables) != 0.0;
                    Rel { rows: rel.rows.iter().filter(keep).cloned().collect(), ..rel }
                }
                Op::Select(items) => Rel {
                    names: items.iter().map(|(n, _)| n.to_string()).collect(),
                    rows: (rel.rows.iter())
                        .map(|row| {
                            items.iter().map(|(_, e)| eval(e, &rel, row, tables)).collect()
                        })
                        .collect(),
                },
                Op::Join(build, probe, key, _) => {
                    let b = build.eval(tables);
                    let (p, k) = (rel.at(probe), b.at(key));
                    // First provider wins: the build side adds only names
                    // not yet visible.
                    let new: Vec<usize> = (0..b.names.len())
                        .filter(|&i| !rel.names.contains(&b.names[i]))
                        .collect();
                    let joined = |row: &Vec<f64>, hit: &Vec<f64>| {
                        row.iter().chain(new.iter().map(|&i| &hit[i])).copied().collect()
                    };
                    let rows = (rel.rows.iter())
                        .flat_map(|row| {
                            b.rows.iter().filter(|s| s[k] == row[p]).map(|s| joined(row, s))
                        })
                        .collect();
                    let names = rel.names.iter().chain(new.iter().map(|&i| &b.names[i]));
                    Rel { names: names.cloned().collect(), rows }
                }
                Op::Sessionize(_) | Op::SequenceMatch(_) => per_user(op, &rel, tables),
            };
        }
        rel
    }
}

fn values(c: &Column) -> Vec<f64> {
    match c.data_type() {
        DataType::I32 | DataType::Date => c.as_i32().iter().map(|&v| f64::from(v)).collect(),
        DataType::I64 => c.as_i64().iter().map(|&v| v as f64).collect(),
        DataType::F64 => c.as_f64().to_vec(),
        DataType::Str => c.as_codes().iter().map(|&v| f64::from(v)).collect(),
    }
}

/// A stateful operator: one loop per user over the `(user, ts)`-ordered log.
fn per_user(op: &Op, rel: &Rel, tables: &[Table]) -> Rel {
    let (u, t, e) = (rel.at("user"), rel.at("ts"), rel.at("event"));
    let rows = rel.rows.chunk_by(|a, b| a[u] == b[u]).map(|run| match op {
        Op::Sessionize(gap) => {
            let breaks = run.windows(2).filter(|w| w[1][t] - w[0][t] > *gap as f64).count();
            vec![run[0][u], (1 + breaks) as f64, run.len() as f64]
        }
        Op::SequenceMatch(pattern) => {
            let mut next = 0;
            for row in run {
                if next < pattern.len() && row[e] == code(tables, "event", pattern[next]) {
                    next += 1;
                }
            }
            vec![run[0][u], f64::from(u8::from(next == pattern.len()))]
        }
        _ => unreachable!("not a stateful operator"),
    });
    let names: &[&str] = match op {
        Op::Sessionize(_) => &["user", "sessions", "events"],
        _ => &["user", "matched"],
    };
    Rel { names: names.iter().map(|n| n.to_string()).collect(), rows: rows.collect() }
}

/// The dictionary code of `word` in string column `column`; -1, which no
/// row holds, when absent.
fn code(tables: &[Table], column: &str, word: &str) -> f64 {
    let t = tables.iter().find(|t| t.schema.contains(column)).expect("a string column");
    t.column(column).dict().and_then(|d| d.code_of(word)).map_or(-1.0, f64::from)
}

fn eval(e: &NamedExpr, rel: &Rel, row: &[f64], tables: &[Table]) -> f64 {
    use NamedExpr as E;
    let v = |x: &E| eval(x, rel, row, tables);
    let truth = |b: bool| f64::from(u8::from(b));
    match e {
        E::Col(c) => row[rel.at(c)],
        E::LitI32(x) => f64::from(*x),
        E::LitI64(x) => *x as f64,
        E::LitF64(x) => *x,
        E::LitStr(s) => panic!("{s:?} is compared, not evaluated"),
        E::Add(a, b) => v(a) + v(b),
        E::Sub(a, b) => v(a) - v(b),
        E::Mul(a, b) => v(a) * v(b),
        E::Eq(a, b) => match (&**a, &**b) {
            (E::Col(c), E::LitStr(s)) => truth(v(a) == code(tables, c, s)),
            _ => truth(v(a) == v(b)),
        },
        E::Lt(a, b) => truth(v(a) < v(b)),
        E::Le(a, b) => truth(v(a) <= v(b)),
        E::Gt(a, b) => truth(v(a) > v(b)),
        E::Ge(a, b) => truth(v(a) >= v(b)),
        E::And(a, b) => truth(v(a) != 0.0 && v(b) != 0.0),
        E::Or(a, b) => truth(v(a) != 0.0 || v(b) != 0.0),
    }
}

/// A small integer literal, typed at random.
fn int(r: &mut StdRng, lo: i64, hi: i64) -> NamedExpr {
    let v = r.gen_range(lo..hi);
    [lit(v as i32), lit(v), lit(v as f64)][r.gen_range(0..3)].clone()
}

/// `+ − ×` over small-valued columns and literals.
fn arith(r: &mut StdRng, nums: &[&'static str]) -> NamedExpr {
    let a = col(pick(r, nums));
    match r.gen_range(0..5) {
        0 => a.add(col(pick(r, nums))),
        1 => a.sub(int(r, -3, 4)),
        2 => a.mul(col(pick(r, nums))),
        3 => a.mul(int(r, -3, 4)),
        _ => a,
    }
}

/// Comparisons over `nums` — or string equality on `word` — under `and` / `or`.
fn predicate(r: &mut StdRng, nums: &[&'static str], word: Option<&'static str>) -> NamedExpr {
    let leaf = |r: &mut StdRng| match (r.gen_range(0..4), word) {
        (0, Some(w)) => col(w).eq(lit(pick(r, &WORDS))),
        _ => {
            let (a, b) = (arith(r, nums), int(r, -10, 200));
            match r.gen_range(0..5) {
                0 => a.lt(b),
                1 => a.le(b),
                2 => a.gt(b),
                3 => a.ge(b),
                _ => a.eq(b),
            }
        }
    };
    match r.gen_range(0..4) {
        0 => leaf(r).and(leaf(r)),
        1 => leaf(r).or(leaf(r)),
        _ => leaf(r),
    }
}

fn aggs(r: &mut StdRng, nums: &[&'static str]) -> Vec<(AggFunc, NamedExpr)> {
    let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
    (0..r.gen_range(1..4)).map(|_| (pick(r, &funcs), arith(r, nums))).collect()
}

/// A scan of `table`, two times in five filtered on its `nums`.
fn side(r: &mut StdRng, table: &'static str, nums: &[&'static str]) -> Chain {
    let ops = if r.gen_bool(0.4) { vec![Op::Filter(predicate(r, nums, None))] } else { vec![] };
    Chain { table, ops }
}

/// The seeded generator: one time in five a stateful query over `ev`, else
/// a query over `fact` — filters, joins with nested and shared build sides,
/// a computed select, a group-by of 0–4 columns.
pub fn case(seed: u64) -> Case {
    let r = &mut StdRng::seed_from_u64(seed);
    let name = format!("g{seed}");
    if r.gen_bool(0.2) {
        return events_case(r, name);
    }
    let algo = |r: &mut StdRng| pick(r, &[JoinAlgo::NonPartitioned, JoinAlgo::Partitioned]);
    let mut nums = vec!["f_qty", "f_amt", "f_day", "f_d2"];
    let mut keys = vec!["f_d1", "f_d2", "f_day", "f_tag", "f_hi"];
    let mut ops = Vec::new();
    let dim2 = side(r, "dim2", &["d2_w", "d2_g"]);
    let (mut nested, mut direct) = (false, false);
    if r.gen_bool(0.6) {
        let mut dim1 = side(r, "dim1", &["d1_w", "d1_g"]);
        nested = r.gen_bool(0.5);
        if nested {
            dim1.ops.push(Op::Join(dim2.clone(), "d1_d2", "d2_k", algo(r)));
        }
        ops.push(Op::Join(dim1, "f_d1", "d1_k", algo(r)));
        nums.extend(["d1_w", "d1_g"]);
        keys.push("d1_g");
    }
    if r.gen_bool(0.5) {
        // Mostly the very side `dim1` joins: lowered and built once.
        let dim2 = if r.gen_bool(0.7) { dim2 } else { side(r, "dim2", &["d2_w", "d2_g"]) };
        ops.insert(r.gen_range(0..=ops.len()), Op::Join(dim2, "f_d2", "d2_k", algo(r)));
        direct = true;
    }
    // When two joins provide dim2's columns, lowering hands a payload to the
    // latest one before its first use, not to the first as `Query::join`
    // documents: reference them only when one join provides them.
    if nested != direct {
        nums.extend(["d2_w", "d2_g"]);
        keys.push("d2_g");
    }
    let scaled = !ops.is_empty() && r.gen_bool(0.3);
    if r.gen_bool(0.5) {
        let fact = predicate(r, &["f_qty", "f_amt", "f_day", "f_d2"], Some("f_tag"));
        ops.insert(0, Op::Filter(fact));
    }
    if ops.len() > 1 && r.gen_bool(0.3) {
        ops.push(Op::Filter(predicate(r, &nums, Some("f_tag"))));
    }
    let mut group_by = Vec::new();
    if r.gen_bool(0.25) {
        // A select's outputs are `f64`s, which group nothing.
        ops.push(Op::Select(vec![("s0", arith(r, &nums)), ("s1", col(pick(r, &nums)))]));
        nums = vec!["s0", "s1"];
        if r.gen_bool(0.5) {
            ops.push(Op::Filter(predicate(r, &nums, None)));
        }
    } else {
        for _ in 0..r.gen_range(0..5) {
            let key = pick(r, &keys);
            if !group_by.contains(&key) {
                group_by.push(key);
            }
        }
    }
    let aggs = aggs(r, &nums);
    Case { name, chain: Chain { table: "fact", ops }, group_by, aggs, scaled }
}

fn events_case(r: &mut StdRng, name: String) -> Case {
    let mut ops = Vec::new();
    if r.gen_bool(0.4) {
        ops.push(Op::Filter(predicate(r, &["ev_v"], Some("event"))));
    }
    let outs: &[&'static str] = if r.gen_bool(0.5) {
        ops.push(Op::Sessionize(r.gen_range(0..4_000)));
        &["sessions", "events", "user"]
    } else {
        let pattern = (0..r.gen_range(1..4)).map(|_| pick(r, &WORDS)).collect();
        ops.push(Op::SequenceMatch(pattern));
        &["matched", "user"]
    };
    if r.gen_bool(0.3) {
        ops.push(Op::Filter(predicate(r, outs, None)));
    }
    let group_by = if r.gen_bool(0.5) { vec![outs[0]] } else { Vec::new() };
    let aggs = aggs(r, outs);
    Case { name, chain: Chain { table: "ev", ops }, group_by, aggs, scaled: false }
}

/// Rewrite one column index, key, expression, group-by list or table name
/// of a plan through its [`Parts`], drawing names from `names`; returns
/// what it rewrote. The same seed rewrites the same part of a placed plan.
pub fn mutate(r: &mut StdRng, parts: &mut [Parts<'_>], names: &[String]) -> &'static str {
    loop {
        let (c, name) = (r.gen_range(0..10), names[r.gen_range(0..names.len())].clone());
        let exprs = [
            Expr::col(c),
            Expr::lt(Expr::col(c), Expr::LitI32(3)),
            Expr::add(Expr::col(c), Expr::LitF64(1.0)),
            Expr::and(Expr::col(c), Expr::gt(Expr::col(0), Expr::col(c))),
        ];
        let expr = exprs[r.gen_range(0..4)].clone();
        let (key, p) = &mut parts[r.gen_range(0..parts.len())];
        let op = (!p.ops.is_empty()).then(|| r.gen_range(0..p.ops.len()));
        match (r.gen_range(0..7), op.map(|i| &mut p.ops[i]), &mut p.agg) {
            (0, ..) => return set(&mut p.source, name, "scan source"),
            (1, ..) => {
                if let Some(k) = key.as_deref_mut() {
                    return set(k, c, "build key");
                }
            }
            (2, _, Some(agg)) => {
                agg.group_by.push(c);
                return "append a group column";
            }
            (3, _, Some(agg)) => {
                let list = (0..r.gen_range(0..6)).map(|_| r.gen_range(0..10)).collect();
                return set(&mut agg.group_by, list, "group-by list");
            }
            (4, _, Some(agg)) => {
                let i = r.gen_range(0..agg.aggs.len());
                return set(&mut agg.aggs[i].1, expr, "aggregate argument");
            }
            (5, Some(PipeOp::Filter(e)), _) => return set(e, expr, "filter"),
            (5, Some(PipeOp::Project(es)), _) => return set(&mut es[0], expr, "projection"),
            (6, Some(PipeOp::JoinProbe { ht, key_col, build_payload_cols, .. }), _) => {
                return match r.gen_range(0..3) {
                    0 => set(key_col, c, "probe key"),
                    1 => set(ht, name, "probed table"),
                    _ => set(build_payload_cols, vec![c], "probe payload"),
                };
            }
            (6, Some(PipeOp::Stateful(s)), _) => {
                let (StatefulAgg::Sessionize { user_col, ts_col, .. }
                | StatefulAgg::WindowFunnel { user_col, ts_col, .. }
                | StatefulAgg::Retention { user_col, ts_col, .. }
                | StatefulAgg::SequenceMatch { user_col, ts_col, .. }) = s;
                let column = if r.gen_bool(0.5) { user_col } else { ts_col };
                return set(column, c, "stateful column");
            }
            _ => {}
        }
    }
}

fn set<T>(slot: &mut T, value: T, what: &'static str) -> &'static str {
    *slot = value;
    what
}
