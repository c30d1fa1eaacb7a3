//! Query execution.
//!
//! The executor is intentionally simple — relations are vectors of rows,
//! the hash join is the only join operator — and leaves the cost of a
//! statement to three decisions it takes from the storage planner's own
//! estimates, never from a hint or a setting:
//!
//! * **Predicate pushdown.** WHERE / ON conjuncts that reference a single
//!   table and compare columns against literals are lowered to a storage
//!   [`Predicate`] and handed to the table scan, where the scan planner
//!   can serve them from the primary key or an index instead of walking
//!   the table (see "The read path" in `crates/db/DESIGN.md`). Lowered
//!   conjuncts are consumed — never re-evaluated in the executor — and
//!   lowering is exact: a conjunct that cannot be expressed with
//!   identical semantics (column-vs-column compares, expressions) stays
//!   behind as an executor filter.
//! * **Load order.** Each table's scan is costed by the planner
//!   ([`TableStore::plan_scan`]'s candidate count; a full scan that still
//!   has a filter to apply is taken to keep `FILTER_KEEPS_ONE_IN` of
//!   its rows, the textbook default of an optimiser without statistics)
//!   and tables are loaded smallest first, preferring a table an
//!   equi-join connects to what is already loaded over a cross product.
//! * **Join-key pushdown.** Before a connected table is scanned, the
//!   distinct join keys of the loaded side are offered to its scan as one
//!   more lowered conjunct, `col IN (keys)`. The conjunct is kept only if
//!   the planner then estimates fewer candidates than without it — the
//!   keys reach a primary-key or index probe — which is the same
//!   "cheapest estimate wins" rule every access path is chosen by. The
//!   list over-approximates (later filters may drop loaded rows); the
//!   hash join still applies the equality. This is what makes the paper's
//!   declarative-debugging query — `Executions` joined to an event table
//!   on `TxnId`, filtered on the event side — cost what its answer costs:
//!   the matching events are found first and `Executions` is reached by
//!   one key probe per event instead of being loaded whole.
//!
//! None of this is visible in a result. Column references bind in FROM
//! order whatever the load order (an unqualified name belongs to the
//! first FROM table that has the column), `SELECT *` lists columns in
//! FROM order, and joined rows come out in the order a FROM-order nested
//! loop over key-ordered scans would produce them.
//!
//! **Projection pushdown** keeps the materialised relations narrow: only
//! the columns the rest of the statement can still reference (select
//! list, ORDER BY, GROUP BY, unlowered conjuncts, join keys) are copied
//! out of the shared storage rows; a column consumed entirely by a
//! pushed-down predicate is never copied at all. One statement shape
//! never materialises a relation: a bare `SELECT COUNT(*)` whose
//! conjuncts all lower is a counting walk (`try_count`). Every `ORDER BY`,
//! with or without `LIMIT`, is a stable sort of the whole result, then a
//! truncation.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use trod_db::{CellHash, CmpOp, Database, Predicate, ScanPlan, Schema, TableStore, Ts, Value};

use crate::ast::{AggFunc, BinOp, Expr, SelectItem, SelectStmt};
use crate::error::{QueryError, QueryResultT};
use crate::result::ResultSet;

/// Options controlling execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Execute against the state as of this commit timestamp instead of
    /// the latest committed state.
    pub as_of: Option<Ts>,
}

/// One bound column of an intermediate relation.
#[derive(Debug, Clone)]
struct ColBinding {
    /// FROM-order index of the table this column came from.
    table: usize,
    /// The table binding (alias or table name) this column came from.
    qualifier: String,
    /// The column name.
    name: String,
}

/// An intermediate relation during execution. Columns are grouped by
/// table in FROM order (schema order within a table) whatever order the
/// tables were loaded in, so positional resolution is FROM-order
/// resolution.
#[derive(Debug, Clone)]
struct Relation {
    cols: Vec<ColBinding>,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| {
            c.name.eq_ignore_ascii_case(name)
                && qualifier
                    .map(|q| c.qualifier.eq_ignore_ascii_case(q))
                    .unwrap_or(true)
        })
    }

    /// Position of `column` (schema-cased) of the `table`-th FROM table.
    fn position(&self, table: usize, column: &str) -> Option<usize> {
        self.cols
            .iter()
            .position(|c| c.table == table && c.name == column)
    }
}

/// Executes a parsed statement against a database.
pub fn execute(db: &Database, stmt: &SelectStmt, opts: QueryOptions) -> QueryResultT<ResultSet> {
    let (catalog, pending, read_ts) = bind(db, stmt, opts)?;
    if let Some(out) = try_count(stmt, &catalog, read_ts, &pending)? {
        return Ok(out);
    }
    let (rel, _) = join_tables(&catalog, read_ts, pending, &ProjectionNeeds::of(stmt))?;
    finish(rel, stmt)
}

/// The oracle the planner is tested against: every table loaded in FROM
/// order with only its own conjuncts pushed down, no fast path taken.
#[cfg(test)]
pub(crate) fn execute_in_from_order(
    db: &Database,
    stmt: &SelectStmt,
    opts: QueryOptions,
) -> QueryResultT<ResultSet> {
    let (catalog, pending, read_ts) = bind(db, stmt, opts)?;
    let proj = ProjectionNeeds::of(stmt);
    let (scans, mut pending) = split_conjuncts(pending, &catalog)?;
    let mut rel = None;
    let mut loaded = Vec::new();
    for (t, scan) in scans.iter().enumerate() {
        let right = load_table(&catalog, t, scan, read_ts, &pending, &proj, false)?;
        rel = Some(add_table(rel, right, t, &mut loaded, &mut pending)?);
    }
    finish(rel.expect("bind rejects an empty FROM list"), stmt)
}

/// Resolves the statement's tables and collects its WHERE / ON conjuncts.
///
/// Every table is read at ONE snapshot — the explicit `as_of`, or the
/// published clock sampled once here — so a multi-table query can never
/// observe a torn state (table A after a concurrent commit, table B
/// before it). This matches the session surface's
/// one-snapshot-per-transaction rule.
fn bind(
    db: &Database,
    stmt: &SelectStmt,
    opts: QueryOptions,
) -> QueryResultT<(Vec<Binding>, Vec<Expr>, Ts)> {
    let mut pending: Vec<Expr> = Vec::new();
    if let Some(on) = &stmt.from_on {
        pending.extend(on.conjuncts().into_iter().cloned());
    }
    for join in &stmt.joins {
        pending.extend(join.on.conjuncts().into_iter().cloned());
    }
    if let Some(w) = &stmt.where_clause {
        pending.extend(w.conjuncts().into_iter().cloned());
    }
    // An as-of read never passes the published clock: versions above it
    // may be installed but not yet published (a torn read otherwise).
    let read_ts = opts.as_of.unwrap_or(Ts::MAX).min(db.current_ts());
    let tables = stmt.all_tables();
    if tables.is_empty() {
        return Err(QueryError::plan("query must reference at least one table"));
    }
    // Resolve every table up front: a column reference binds against the
    // whole FROM list, not just the table being loaded. Table names are
    // case-insensitive so the paper's literal queries work regardless of
    // naming convention.
    let catalog = tables
        .iter()
        .map(|t| {
            let table = db
                .table_ignoring_case(&t.table)
                .map_err(|_| QueryError::plan(format!("no such table `{}`", t.table)))?;
            Ok(Binding {
                binding: t.binding_name().to_string(),
                table,
            })
        })
        .collect::<QueryResultT<_>>()?;
    Ok((catalog, pending, read_ts))
}

/// Aggregation, ORDER BY, LIMIT and the select list over the joined
/// relation.
fn finish(mut rel: Relation, stmt: &SelectStmt) -> QueryResultT<ResultSet> {
    if stmt.is_aggregate() {
        let mut out = aggregate(&rel, stmt)?;
        sort_output(&mut out, stmt)?;
        if let Some(limit) = stmt.limit {
            out = ResultSet::new(
                out.columns().to_vec(),
                out.rows().iter().take(limit).cloned().collect(),
            );
        }
        return Ok(out);
    }

    // ORDER BY evaluates against the full relation so it can reference
    // columns that are not projected.
    if !stmt.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = rel
            .rows
            .iter()
            .map(|row| {
                let keys = stmt
                    .order_by
                    .iter()
                    .map(|k| eval(&rel, row, &k.expr))
                    .collect::<QueryResultT<Vec<Value>>>()?;
                Ok((keys, row.clone()))
            })
            .collect::<QueryResultT<_>>()?;
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, key) in stmt.order_by.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            Ordering::Equal
        });
        rel.rows = keyed.into_iter().map(|(_, r)| r).collect();
    }
    if let Some(limit) = stmt.limit {
        rel.rows.truncate(limit);
    }
    project(&rel, stmt)
}

/// Calls `f(qualifier, name)` for every column reference in `expr`.
fn for_each_column<'a>(expr: &'a Expr, f: &mut impl FnMut(Option<&'a str>, &'a str)) {
    match expr {
        Expr::Column { qualifier, name } => f(qualifier.as_deref(), name),
        Expr::Literal(_) => {}
        Expr::Compare { left, right, .. } => {
            for_each_column(left, f);
            for_each_column(right, f);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            for_each_column(a, f);
            for_each_column(b, f);
        }
        Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => for_each_column(e, f),
        Expr::InList { expr, list } => {
            for_each_column(expr, f);
            for e in list {
                for_each_column(e, f);
            }
        }
    }
}

/// Column references a statement can still evaluate after its relations
/// are materialised — everything that bounds projection pushdown except
/// the pending conjuncts, which [`load_table`] checks live (they shrink
/// as tables are joined).
struct ProjectionNeeds<'a> {
    /// `SELECT *` appears: every column of every table is needed.
    wildcard: bool,
    /// `(qualifier, column)` references, case-preserved.
    refs: Vec<(Option<&'a str>, &'a str)>,
}

impl<'a> ProjectionNeeds<'a> {
    fn of(stmt: &'a SelectStmt) -> Self {
        let mut wildcard = false;
        let mut refs = Vec::new();
        let mut collect = |q, n| refs.push((q, n));
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => wildcard = true,
                SelectItem::Expr { expr, .. } => for_each_column(expr, &mut collect),
                SelectItem::Aggregate { arg, .. } => {
                    if let Some(arg) = arg {
                        for_each_column(arg, &mut collect);
                    }
                }
            }
        }
        for key in &stmt.order_by {
            for_each_column(&key.expr, &mut collect);
        }
        for expr in &stmt.group_by {
            for_each_column(expr, &mut collect);
        }
        ProjectionNeeds { wildcard, refs }
    }

    /// True if a reference may name `column` of the table bound as
    /// `binding`.
    fn needs(&self, binding: &str, column: &str) -> bool {
        self.wildcard
            || self
                .refs
                .iter()
                .any(|(q, n)| ref_matches(*q, n, binding, column))
    }
}

/// True if a `(qualifier, name)` column reference may resolve to `column`
/// of the table bound as `binding`: executor resolution is
/// case-insensitive, and an unqualified name can resolve into any table.
/// The one matching rule both projection-pushdown sites share.
fn ref_matches(qualifier: Option<&str>, name: &str, binding: &str, column: &str) -> bool {
    name.eq_ignore_ascii_case(column)
        && qualifier
            .map(|q| q.eq_ignore_ascii_case(binding))
            .unwrap_or(true)
}

/// True if `expr` contains a column reference that may resolve to
/// `column` of the table bound as `binding`.
fn expr_references(expr: &Expr, binding: &str, column: &str) -> bool {
    let mut found = false;
    for_each_column(expr, &mut |q, n| {
        found |= ref_matches(q, n, binding, column)
    });
    found
}

/// One FROM/JOIN table with its binding name and storage handle; the full
/// FROM-ordered list is the statement's catalog, against which every
/// column reference binds.
struct Binding {
    binding: String,
    table: Arc<TableStore>,
}

impl Binding {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}

/// Binds a column reference against the catalog the way SQL scoping
/// does, whatever order the tables are loaded in: to the first FROM
/// table that carries the qualifier (if one is given) and has the
/// column. Returns the table's FROM index and the schema-cased column
/// name (storage predicates resolve names case-sensitively; the SQL
/// layer is case-insensitive).
fn bind_column<'c>(
    qualifier: Option<&str>,
    name: &str,
    catalog: &'c [Binding],
) -> Option<(usize, &'c str)> {
    catalog.iter().enumerate().find_map(|(t, b)| {
        if qualifier.is_some_and(|q| !q.eq_ignore_ascii_case(&b.binding)) {
            return None;
        }
        let column = b
            .schema()
            .columns()
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))?;
        Some((t, column.name.as_str()))
    })
}

/// A WHERE / ON conjunct no scan could consume, bound to the catalog.
struct Conjunct {
    expr: Expr,
    /// FROM indexes of the tables its column references bind to; it is
    /// applied as soon as all of them are loaded.
    tables: Vec<usize>,
    /// For `a.x = b.y` across two tables, the two `(table, column)` ends:
    /// a hash-join key.
    join: Option<[(usize, String); 2]>,
}

impl Conjunct {
    /// If this is an equi-join between table `t` and a table in
    /// `loaded`: the column on `t`'s side, the loaded table and its
    /// column.
    fn join_to(&self, t: usize, loaded: &[usize]) -> Option<(&str, usize, &str)> {
        let [a, b] = self.join.as_ref()?;
        let (own, other) = if a.0 == t { (a, b) } else { (b, a) };
        (own.0 == t && loaded.contains(&other.0)).then_some((&own.1, other.0, &other.1))
    }
}

/// `a AND b`, without wrapping a lone predicate in `TRUE AND ..`.
fn and(a: Predicate, b: Predicate) -> Predicate {
    match a {
        Predicate::True => b,
        a => a.and(b),
    }
}

/// Splits the statement's conjuncts into one storage predicate per table
/// — every conjunct a table can answer by itself, lowered and consumed —
/// and the rest, bound to the catalog. A conjunct lowers into at most one
/// table (all its columns must bind there), so the split does not depend
/// on the order tables are later loaded in.
fn split_conjuncts(
    pending: Vec<Expr>,
    catalog: &[Binding],
) -> QueryResultT<(Vec<Predicate>, Vec<Conjunct>)> {
    let mut scans = vec![Predicate::True; catalog.len()];
    let mut rest = Vec::new();
    for expr in pending {
        let lowered =
            (0..catalog.len()).find_map(|t| Some((t, lower_conjunct(&expr, catalog, t)?)));
        if let Some((t, pred)) = lowered {
            scans[t] = and(std::mem::replace(&mut scans[t], Predicate::True), pred);
            continue;
        }
        let mut tables = Vec::new();
        let mut unbound = false;
        for_each_column(&expr, &mut |q, n| match bind_column(q, n, catalog) {
            Some((t, _)) if !tables.contains(&t) => tables.push(t),
            Some(_) => {}
            None => unbound = true,
        });
        if unbound {
            return Err(QueryError::plan(format!(
                "expression references unknown column: {expr}"
            )));
        }
        let join = match &expr {
            Expr::Compare {
                left,
                op: BinOp::Eq,
                right,
            } => match (bound_column(left, catalog), bound_column(right, catalog)) {
                (Some(a), Some(b)) if a.0 != b.0 => Some([a, b]),
                _ => None,
            },
            _ => None,
        };
        rest.push(Conjunct { expr, tables, join });
    }
    Ok((scans, rest))
}

/// How many rows a full scan is taken to keep, as one in this many, when
/// it has a filter to apply and nothing is known about the data. Only
/// ever weighs one load order against another; no result depends on it.
const FILTER_KEEPS_ONE_IN: usize = 10;

/// One table load of a multi-table statement, as executed: the crate's
/// own description of a plan, for tests.
#[derive(Debug, PartialEq)]
struct LoadStep {
    /// The table's binding name.
    table: String,
    /// The access path its scan (own conjuncts plus any pushed join
    /// keys) was planned to take.
    plan: ScanPlan,
}

/// Loads and joins every table of the statement: cost-ordered loading
/// with join-key pushdown (module docs). Returns the joined relation —
/// columns and rows in FROM order — and, for multi-table statements, the
/// steps taken.
fn join_tables(
    catalog: &[Binding],
    read_ts: Ts,
    pending: Vec<Expr>,
    proj: &ProjectionNeeds,
) -> QueryResultT<(Relation, Vec<LoadStep>)> {
    let (mut scans, mut pending) = split_conjuncts(pending, catalog)?;
    if let [only] = scans.as_slice() {
        let rel = load_table(catalog, 0, only, read_ts, &pending, proj, false)?;
        let rel = add_table(None, rel, 0, &mut Vec::new(), &mut pending)?;
        return Ok((rel, Vec::new()));
    }
    let mut plans: Vec<ScanPlan> = catalog
        .iter()
        .zip(&scans)
        .map(|(b, scan)| b.table.plan_scan(scan))
        .collect();
    let order = load_order(&plans, &scans, &pending);
    // Out of FROM order the rows come out permuted; each table's key is
    // then kept to sort them back.
    let reordered = order.windows(2).any(|w| w[0] > w[1]);

    let mut rel: Option<Relation> = None;
    let mut loaded = Vec::new();
    let mut steps = Vec::new();
    for t in order {
        if let Some(rel) = &rel {
            push_join_keys(rel, t, &loaded, &pending, catalog, &mut scans, &mut plans);
        }
        let right = load_table(catalog, t, &scans[t], read_ts, &pending, proj, reordered)?;
        rel = Some(add_table(rel, right, t, &mut loaded, &mut pending)?);
        steps.push(LoadStep {
            table: catalog[t].binding.clone(),
            plan: plans[t].clone(),
        });
    }
    let mut rel = rel.expect("bind rejects an empty FROM list");
    if reordered {
        // Scans return rows in key order and joins keep the order of
        // their inputs, so sorting by every table's key, FROM-first,
        // is the order FROM-order loading would have produced.
        let key_positions: Vec<usize> = catalog
            .iter()
            .enumerate()
            .flat_map(|(t, b)| {
                let rel = &rel;
                b.schema().primary_key().iter().map(move |&col| {
                    rel.position(t, &b.schema().columns()[col].name)
                        .expect("key columns are kept when reordered")
                })
            })
            .collect();
        rel.rows.sort_by(|a, b| {
            key_positions
                .iter()
                .map(|&i| a[i].total_cmp(&b[i]))
                .find(|ord| ord.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }
    Ok((rel, steps))
}

/// Join-key pushdown: offers the scan of table `t` the distinct keys the
/// loaded relation `rel` holds on each equi-join that connects them, as
/// `col IN (keys)`, and keeps the conjunct where the planner then
/// estimates fewer candidates than without it (the keys reach a
/// primary-key or index probe). NULLs never equi-join and are left out.
fn push_join_keys(
    rel: &Relation,
    t: usize,
    loaded: &[usize],
    pending: &[Conjunct],
    catalog: &[Binding],
    scans: &mut [Predicate],
    plans: &mut [ScanPlan],
) {
    for conjunct in pending {
        let Some((column, other, other_column)) = conjunct.join_to(t, loaded) else {
            continue;
        };
        let pos = rel
            .position(other, other_column)
            .expect("a pending conjunct's columns are kept");
        let mut keys: Vec<Value> = rel
            .rows
            .iter()
            .map(|row| &row[pos])
            .filter(|v| !v.is_null())
            .cloned()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        // One probe per key has to beat the scan already planned.
        if keys.len() >= plans[t].candidates() {
            continue;
        }
        let pushed = and(scans[t].clone(), Predicate::in_list(column, keys));
        let plan = catalog[t].table.plan_scan(&pushed);
        if plan.candidates() < plans[t].candidates() {
            scans[t] = pushed;
            plans[t] = plan;
        }
    }
}

/// The order to load tables in: smallest estimated relation first, then
/// repeatedly the smallest table an equi-join connects to the loaded
/// ones (so its scan can take their keys and the join is a hash join),
/// or the smallest of all when none is connected. Ties keep FROM order.
fn load_order(plans: &[ScanPlan], scans: &[Predicate], pending: &[Conjunct]) -> Vec<usize> {
    let estimate = |t: usize| match &plans[t] {
        ScanPlan::FullScan { rows } if scans[t] != Predicate::True => rows / FILTER_KEEPS_ONE_IN,
        plan => plan.candidates(),
    };
    let mut order: Vec<usize> = Vec::with_capacity(plans.len());
    let mut rest: Vec<usize> = (0..plans.len()).collect();
    while !rest.is_empty() {
        let connected = rest
            .iter()
            .copied()
            .filter(|&t| pending.iter().any(|c| c.join_to(t, &order).is_some()))
            .min_by_key(|&t| estimate(t));
        let next = connected
            .or_else(|| rest.iter().copied().min_by_key(|&t| estimate(t)))
            .expect("rest is not empty");
        rest.retain(|&t| t != next);
        order.push(next);
    }
    order
}

/// Folds a freshly loaded table into the joined relation and applies
/// every conjunct that has just become evaluable.
fn add_table(
    rel: Option<Relation>,
    right: Relation,
    t: usize,
    loaded: &mut Vec<usize>,
    pending: &mut Vec<Conjunct>,
) -> QueryResultT<Relation> {
    let mut rel = match rel {
        None => right,
        Some(left) => join_relations(left, right, t, loaded, pending),
    };
    loaded.push(t);
    apply_resolvable(&mut rel, pending, loaded)?;
    Ok(rel)
}

/// Materialises the catalog's `t`-th table as a relation: runs `scan`
/// (the table's lowered conjuncts, plus any pushed join keys), then
/// copies only the columns the rest of the statement can still reference
/// — plus the primary key when `keep_key` asks for it.
fn load_table(
    catalog: &[Binding],
    t: usize,
    scan: &Predicate,
    read_ts: Ts,
    pending: &[Conjunct],
    proj: &ProjectionNeeds,
    keep_key: bool,
) -> QueryResultT<Relation> {
    let binding = &catalog[t];
    let schema = binding.schema();
    // Projection pushdown: a column is copied only if the select list,
    // ORDER BY, GROUP BY or a still-pending conjunct can reference it.
    let keep: Vec<usize> = schema
        .columns()
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            proj.needs(&binding.binding, &c.name)
                || pending
                    .iter()
                    .any(|p| expr_references(&p.expr, &binding.binding, &c.name))
                || keep_key && schema.primary_key().contains(i)
        })
        .map(|(i, _)| i)
        .collect();
    let scanned = binding.table.scan_at(scan, read_ts)?;
    Ok(materialise(t, binding, scanned, &keep))
}

/// Copies the `keep` columns of scanned rows into a relation. The
/// executor materialises relations of owned values (projections and
/// joins rewrite them), so this is the one place the shared rows are
/// copied out of the storage engine.
fn materialise(
    t: usize,
    binding: &Binding,
    scanned: trod_db::ScanRows,
    keep: &[usize],
) -> Relation {
    let cols = keep
        .iter()
        .map(|&i| ColBinding {
            table: t,
            qualifier: binding.binding.clone(),
            name: binding.schema().columns()[i].name.clone(),
        })
        .collect();
    let rows = scanned
        .into_iter()
        .map(|(_, r)| keep.iter().map(|&i| r[i].clone()).collect())
        .collect();
    Relation { cols, rows }
}

/// Lowers every conjunct into one predicate over the catalog's only
/// table, or returns `None` if any of them cannot be lowered: the fast
/// path below is all-or-nothing.
fn lower_all(pending: &[Expr], catalog: &[Binding]) -> Option<Predicate> {
    pending.iter().try_fold(Predicate::True, |lowered, expr| {
        Some(and(lowered, lower_conjunct(expr, catalog, 0)?))
    })
}

/// Attempts COUNT pushdown: a single-table statement that selects
/// nothing but `COUNT(*)` and whose WHERE clause lowers entirely into
/// the scan is a counting walk ([`TableStore::count_matching_at`]) — no
/// row is materialised, shared or sorted.
fn try_count(
    stmt: &SelectStmt,
    catalog: &[Binding],
    read_ts: Ts,
    pending: &[Expr],
) -> QueryResultT<Option<ResultSet>> {
    let ([binding], [item]) = (catalog, stmt.items.as_slice()) else {
        return Ok(None);
    };
    let count_star = matches!(
        item,
        SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: None,
            ..
        }
    );
    // ORDER BY and LIMIT over the one output row keep their (error)
    // semantics on the generic path.
    if !count_star || !stmt.group_by.is_empty() || !stmt.order_by.is_empty() || stmt.limit.is_some()
    {
        return Ok(None);
    }
    let Some(lowered) = lower_all(pending, catalog) else {
        return Ok(None);
    };
    let count = binding.table.count_matching_at(&lowered, read_ts)?;
    Ok(Some(ResultSet::new(
        vec![item.output_name()],
        vec![vec![Value::Int(count as i64)]],
    )))
}

/// Lowers one conjunct to a storage [`Predicate`] over the catalog's
/// `idx`-th table, or returns `None` if it cannot be expressed with
/// identical semantics (a reference binds to another table, it compares
/// two columns, or it uses an expression the storage predicate language
/// lacks).
///
/// The executor and the storage engine agree on comparison semantics —
/// NULL comparisons are false, `IN` uses SQL equality, values order by
/// `Value::total_cmp` — so a lowered conjunct filters exactly the rows
/// the executor's own evaluation would have kept.
fn lower_conjunct(expr: &Expr, catalog: &[Binding], idx: usize) -> Option<Predicate> {
    match expr {
        Expr::Compare { left, op, right } => {
            if let (Some(column), Some(value)) = (local_column(left, catalog, idx), literal(right))
            {
                Some(Predicate::Compare {
                    column,
                    op: cmp_op(*op),
                    value: value.clone(),
                })
            } else if let (Some(value), Some(column)) =
                (literal(left), local_column(right, catalog, idx))
            {
                // `5 < col` reads as `col > 5`.
                Some(Predicate::Compare {
                    column,
                    op: flip(cmp_op(*op)),
                    value: value.clone(),
                })
            } else {
                None
            }
        }
        Expr::And(a, b) => {
            Some(lower_conjunct(a, catalog, idx)?.and(lower_conjunct(b, catalog, idx)?))
        }
        Expr::Or(a, b) => {
            Some(lower_conjunct(a, catalog, idx)?.or(lower_conjunct(b, catalog, idx)?))
        }
        Expr::Not(e) => Some(lower_conjunct(e, catalog, idx)?.negate()),
        Expr::IsNull(e) => Some(Predicate::IsNull(local_column(e, catalog, idx)?)),
        Expr::IsNotNull(e) => Some(Predicate::IsNotNull(local_column(e, catalog, idx)?)),
        Expr::InList { expr, list } => {
            let column = local_column(expr, catalog, idx)?;
            let values = list
                .iter()
                .map(|e| literal(e).cloned())
                .collect::<Option<Vec<Value>>>()?;
            Some(Predicate::InList { column, values })
        }
        // Bare columns/literals in boolean position have executor-specific
        // truthiness; leave them to the executor.
        Expr::Column { .. } | Expr::Literal(_) => None,
    }
}

/// If `expr` is a column reference, the FROM index of the table it binds
/// to and the schema-cased column name ([`bind_column`]).
fn bound_column(expr: &Expr, catalog: &[Binding]) -> Option<(usize, String)> {
    let Expr::Column { qualifier, name } = expr else {
        return None;
    };
    let (t, column) = bind_column(qualifier.as_deref(), name, catalog)?;
    Some((t, column.to_string()))
}

/// Resolves `expr` as a column of the catalog's `idx`-th table. A name
/// that binds to an earlier table must not be captured by a later table
/// that happens to share it (the conjunct stays with the executor, which
/// applies it against the join).
fn local_column(expr: &Expr, catalog: &[Binding], idx: usize) -> Option<String> {
    bound_column(expr, catalog)
        .filter(|(t, _)| *t == idx)
        .map(|(_, name)| name)
}

fn literal(expr: &Expr) -> Option<&Value> {
    match expr {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

fn cmp_op(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::Ge,
    }
}

/// Mirrors a comparison across its operands (`a op b` ⇔ `b flip(op) a`).
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Applies (and removes) every pending conjunct whose tables are all
/// loaded. Its columns then resolve positionally to the tables they are
/// bound to: a bound table is the first in FROM order that has the
/// column, and the relation's columns are in FROM order.
fn apply_resolvable(
    rel: &mut Relation,
    pending: &mut Vec<Conjunct>,
    loaded: &[usize],
) -> QueryResultT<()> {
    let mut remaining = Vec::new();
    for conjunct in pending.drain(..) {
        if conjunct.tables.iter().all(|t| loaded.contains(t)) {
            let rows = std::mem::take(&mut rel.rows);
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if truthy(&eval(rel, &row, &conjunct.expr)?) {
                    kept.push(row);
                }
            }
            rel.rows = kept;
        } else {
            remaining.push(conjunct);
        }
    }
    *pending = remaining;
    Ok(())
}

/// Joins the loaded relation with the freshly loaded `t`-th table.
/// Equi-join conjuncts connecting the two sides are removed from
/// `pending` and used as hash-join keys; if none exist the join
/// degenerates to a cross product (filtered later by `pending`). Output
/// columns stay grouped by table in FROM order; output rows are in
/// `left` order, then `right` order.
fn join_relations(
    left: Relation,
    right: Relation,
    t: usize,
    loaded: &[usize],
    pending: &mut Vec<Conjunct>,
) -> Relation {
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    pending.retain(|conjunct| {
        let Some((column, other, other_column)) = conjunct.join_to(t, loaded) else {
            return true;
        };
        let positions = (
            left.position(other, other_column),
            right.position(t, column),
        );
        let (Some(l), Some(r)) = positions else {
            unreachable!("a pending conjunct's columns are kept");
        };
        left_keys.push(l);
        right_keys.push(r);
        false
    });

    // `left`'s columns are in FROM order and `right` is one table: its
    // columns slot in after those of the tables that precede it.
    let split = left.cols.partition_point(|c| c.table < t);
    let cols = [&left.cols[..split], &right.cols, &left.cols[split..]].concat();
    let combine = |l: &[Value], r: &[Value]| [&l[..split], r, &l[split..]].concat();

    let mut rows = Vec::new();
    if left_keys.is_empty() {
        // Cross product.
        for l in &left.rows {
            for r in &right.rows {
                rows.push(combine(l, r));
            }
        }
    } else {
        // Hash join: build on the right side, probe with the left.
        let mut table: HashMap<Vec<Value>, Vec<&Vec<Value>>, CellHash> = HashMap::default();
        for r in &right.rows {
            let key: Vec<Value> = right_keys.iter().map(|&i| r[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(r);
        }
        for l in &left.rows {
            let key: Vec<Value> = left_keys.iter().map(|&i| l[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                for r in matches {
                    rows.push(combine(l, r));
                }
            }
        }
    }
    Relation { cols, rows }
}

/// Evaluates an expression against a row of a relation.
fn eval(rel: &Relation, row: &[Value], expr: &Expr) -> QueryResultT<Value> {
    match expr {
        Expr::Column { qualifier, name } => {
            let idx = rel
                .resolve(qualifier.as_deref(), name)
                .ok_or_else(|| QueryError::exec(format!("unknown column `{expr}`")))?;
            Ok(row[idx].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Compare { left, op, right } => {
            let l = eval(rel, row, left)?;
            let r = eval(rel, row, right)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = l.total_cmp(&r);
            let b = match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::NotEq => ord.is_ne(),
                BinOp::Lt => ord.is_lt(),
                BinOp::LtEq => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::GtEq => ord.is_ge(),
            };
            Ok(Value::Bool(b))
        }
        Expr::And(a, b) => Ok(Value::Bool(
            truthy(&eval(rel, row, a)?) && truthy(&eval(rel, row, b)?),
        )),
        Expr::Or(a, b) => Ok(Value::Bool(
            truthy(&eval(rel, row, a)?) || truthy(&eval(rel, row, b)?),
        )),
        Expr::Not(e) => Ok(Value::Bool(!truthy(&eval(rel, row, e)?))),
        Expr::IsNull(e) => Ok(Value::Bool(eval(rel, row, e)?.is_null())),
        Expr::IsNotNull(e) => Ok(Value::Bool(!eval(rel, row, e)?.is_null())),
        Expr::InList { expr, list } => {
            let v = eval(rel, row, expr)?;
            if v.is_null() {
                return Ok(Value::Bool(false));
            }
            for item in list {
                let iv = eval(rel, row, item)?;
                if iv.sql_eq(&v) {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
    }
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Projects the final relation through the SELECT list (non-aggregate).
fn project(rel: &Relation, stmt: &SelectStmt) -> QueryResultT<ResultSet> {
    let mut columns = Vec::new();
    let mut exprs: Vec<Option<Expr>> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (i, col) in rel.cols.iter().enumerate() {
                    let ambiguous = rel
                        .cols
                        .iter()
                        .filter(|c| c.name.eq_ignore_ascii_case(&col.name))
                        .count()
                        > 1;
                    let name = if ambiguous {
                        format!("{}.{}", col.qualifier, col.name)
                    } else {
                        col.name.clone()
                    };
                    columns.push(name);
                    exprs.push(Some(Expr::Column {
                        qualifier: Some(rel.cols[i].qualifier.clone()),
                        name: rel.cols[i].name.clone(),
                    }));
                }
            }
            SelectItem::Expr { expr, .. } => {
                columns.push(item.output_name());
                exprs.push(Some(expr.clone()));
            }
            SelectItem::Aggregate { .. } => {
                return Err(QueryError::plan(
                    "aggregate used without aggregation context",
                ))
            }
        }
    }
    let mut rows = Vec::with_capacity(rel.rows.len());
    for row in &rel.rows {
        let mut out = Vec::with_capacity(exprs.len());
        for expr in exprs.iter().flatten() {
            out.push(eval(rel, row, expr)?);
        }
        rows.push(out);
    }
    Ok(ResultSet::new(columns, rows))
}

/// Computes GROUP BY groups and aggregates.
fn aggregate(rel: &Relation, stmt: &SelectStmt) -> QueryResultT<ResultSet> {
    // Group rows.
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize, CellHash> = HashMap::default();
    for row in &rel.rows {
        let key: Vec<Value> = stmt
            .group_by
            .iter()
            .map(|e| eval(rel, row, e))
            .collect::<QueryResultT<_>>()?;
        match index.get(&key) {
            Some(&i) => groups[i].1.push(row),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![row]));
            }
        }
    }
    // A query with aggregates but no GROUP BY has exactly one group, even
    // over an empty input.
    if stmt.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let columns: Vec<String> = stmt.items.iter().map(|i| i.output_name()).collect();
    let mut rows = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        let mut out = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let v = match item {
                SelectItem::Wildcard => {
                    return Err(QueryError::plan(
                        "SELECT * cannot be combined with aggregation",
                    ))
                }
                SelectItem::Expr { expr, .. } => match members.first() {
                    Some(first) => eval(rel, first, expr)?,
                    None => Value::Null,
                },
                SelectItem::Aggregate { func, arg, .. } => {
                    eval_aggregate(rel, members, *func, arg.as_ref())?
                }
            };
            out.push(v);
        }
        rows.push(out);
    }
    Ok(ResultSet::new(columns, rows))
}

fn eval_aggregate(
    rel: &Relation,
    members: &[&Vec<Value>],
    func: AggFunc,
    arg: Option<&Expr>,
) -> QueryResultT<Value> {
    let values: Vec<Value> = match arg {
        None => members.iter().map(|_| Value::Int(1)).collect(),
        Some(expr) => members
            .iter()
            .map(|row| eval(rel, row, expr))
            .collect::<QueryResultT<_>>()?,
    };
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    Ok(match func {
        AggFunc::Count => Value::Int(non_null.len() as i64),
        AggFunc::Min => non_null
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Max => non_null
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Sum => {
            if non_null.is_empty() {
                Value::Null
            } else if non_null
                .iter()
                .all(|v| matches!(v, Value::Int(_) | Value::Timestamp(_)))
            {
                Value::Int(non_null.iter().map(|v| v.as_int().unwrap_or(0)).sum())
            } else {
                Value::Float(non_null.iter().map(|v| v.as_float().unwrap_or(0.0)).sum())
            }
        }
        AggFunc::Avg => {
            if non_null.is_empty() {
                Value::Null
            } else {
                let sum: f64 = non_null.iter().map(|v| v.as_float().unwrap_or(0.0)).sum();
                Value::Float(sum / non_null.len() as f64)
            }
        }
    })
}

/// Sorts aggregate output rows by ORDER BY keys referencing output column
/// names (e.g. `ORDER BY n DESC` where `n` is an aggregate alias).
fn sort_output(out: &mut ResultSet, stmt: &SelectStmt) -> QueryResultT<()> {
    if stmt.order_by.is_empty() {
        return Ok(());
    }
    let mut key_indices = Vec::new();
    for key in &stmt.order_by {
        let name = match &key.expr {
            Expr::Column { name, .. } => name.clone(),
            other => other.to_string(),
        };
        let idx = out.column_index(&name).ok_or_else(|| {
            QueryError::plan(format!("ORDER BY column `{name}` is not in the output"))
        })?;
        key_indices.push((idx, key.descending));
    }
    let mut rows = out.rows().to_vec();
    rows.sort_by(|a, b| {
        for (idx, desc) in &key_indices {
            let ord = a[*idx].total_cmp(&b[*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    *out = ResultSet::new(out.columns().to_vec(), rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::DataType;

    fn schema() -> Schema {
        Schema::builder()
            .column("TxnId", DataType::Int)
            .column("ReqId", DataType::Text)
            .nullable("Score", DataType::Float)
            .primary_key(&["TxnId"])
            .build()
            .unwrap()
    }

    /// A single-table catalog bound as `E`.
    fn cat() -> Vec<Binding> {
        vec![Binding {
            binding: "E".into(),
            table: Arc::new(TableStore::new("Executions", schema())),
        }]
    }

    fn col(name: &str) -> Expr {
        Expr::column(name)
    }

    fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    fn cmp(l: Expr, op: BinOp, r: Expr) -> Expr {
        Expr::Compare {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn lowers_column_literal_comparisons_in_both_orientations() {
        let p = lower_conjunct(&cmp(col("TxnId"), BinOp::Lt, lit(5i64)), &cat(), 0).unwrap();
        assert_eq!(p, Predicate::lt("TxnId", 5i64));
        // Literal-first comparisons mirror the operator.
        let p = lower_conjunct(&cmp(lit(5i64), BinOp::Lt, col("TxnId")), &cat(), 0).unwrap();
        assert_eq!(p, Predicate::gt("TxnId", 5i64));
        // Case-insensitive SQL names resolve to the schema-cased column.
        let p = lower_conjunct(&cmp(col("reqid"), BinOp::Eq, lit("R1")), &cat(), 0).unwrap();
        assert_eq!(p, Predicate::eq("ReqId", "R1"));
        // Qualified references must name this binding.
        let q = cmp(Expr::qualified("E", "TxnId"), BinOp::GtEq, lit(2i64));
        assert_eq!(
            lower_conjunct(&q, &cat(), 0),
            Some(Predicate::ge("TxnId", 2i64))
        );
        let other = cmp(Expr::qualified("F", "TxnId"), BinOp::GtEq, lit(2i64));
        assert_eq!(lower_conjunct(&other, &cat(), 0), None);
    }

    #[test]
    fn lowers_boolean_structure_null_tests_and_in_lists() {
        let e = Expr::Or(
            Box::new(cmp(col("TxnId"), BinOp::Eq, lit(1i64))),
            Box::new(Expr::Not(Box::new(Expr::IsNull(Box::new(col("Score")))))),
        );
        let p = lower_conjunct(&e, &cat(), 0).unwrap();
        assert_eq!(
            p,
            Predicate::eq("TxnId", 1i64).or(Predicate::IsNull("Score".into()).negate())
        );
        let e = Expr::InList {
            expr: Box::new(col("ReqId")),
            list: vec![lit("R1"), lit("R2")],
        };
        let p = lower_conjunct(&e, &cat(), 0).unwrap();
        assert_eq!(
            p,
            Predicate::in_list(
                "ReqId",
                vec![Value::Text("R1".into()), Value::Text("R2".into())]
            )
        );
    }

    #[test]
    fn refuses_conjuncts_it_cannot_express_exactly() {
        // Column-vs-column compares stay in the executor.
        let e = cmp(col("TxnId"), BinOp::Eq, col("Score"));
        assert_eq!(lower_conjunct(&e, &cat(), 0), None);
        // Unknown columns are not lowered (the executor reports them).
        let e = cmp(col("Missing"), BinOp::Eq, lit(1i64));
        assert_eq!(lower_conjunct(&e, &cat(), 0), None);
        // IN over non-literal elements stays behind.
        let e = Expr::InList {
            expr: Box::new(col("ReqId")),
            list: vec![col("ReqId")],
        };
        assert_eq!(lower_conjunct(&e, &cat(), 0), None);
        // A partially-lowerable AND is all-or-nothing: the executor keeps
        // the whole conjunct rather than re-splitting it.
        let e = Expr::And(
            Box::new(cmp(col("TxnId"), BinOp::Eq, lit(1i64))),
            Box::new(cmp(col("TxnId"), BinOp::Eq, col("Score"))),
        );
        assert_eq!(lower_conjunct(&e, &cat(), 0), None);
        // Bare boolean-position columns/literals keep executor truthiness.
        assert_eq!(lower_conjunct(&col("ReqId"), &cat(), 0), None);
        assert_eq!(lower_conjunct(&lit(true), &cat(), 0), None);
    }

    #[test]
    fn unqualified_names_bind_to_the_first_table_that_has_them() {
        // Catalog: E(TxnId, ReqId, Score) then F(EventId, Score). The
        // executor resolves an unqualified `Score` against the joined
        // relation left-to-right, i.e. to E.Score — so it must not lower
        // into F's scan even though F has a Score column too.
        let f_schema = Schema::builder()
            .column("EventId", DataType::Int)
            .column("Score", DataType::Float)
            .primary_key(&["EventId"])
            .build()
            .unwrap();
        let catalog = vec![
            cat().pop().unwrap(),
            Binding {
                binding: "F".into(),
                table: Arc::new(TableStore::new("Events", f_schema)),
            },
        ];
        let unqualified = cmp(col("Score"), BinOp::Gt, lit(1.0f64));
        assert_eq!(
            lower_conjunct(&unqualified, &catalog, 0),
            Some(Predicate::gt("Score", 1.0f64)),
            "binds to E, the first table with the column"
        );
        assert_eq!(
            lower_conjunct(&unqualified, &catalog, 1),
            None,
            "must not be captured by F"
        );
        // Qualified references pick their table explicitly.
        let qualified = cmp(Expr::qualified("F", "Score"), BinOp::Gt, lit(1.0f64));
        assert_eq!(lower_conjunct(&qualified, &catalog, 0), None);
        assert_eq!(
            lower_conjunct(&qualified, &catalog, 1),
            Some(Predicate::gt("Score", 1.0f64))
        );
        // F's own column lowers into F: no earlier table shadows it.
        let event = cmp(col("EventId"), BinOp::Eq, lit(3i64));
        assert_eq!(
            lower_conjunct(&event, &catalog, 1),
            Some(Predicate::eq("EventId", 3i64))
        );
    }

    #[test]
    fn projection_needs_tracks_select_order_group_references() {
        let stmt = crate::parse(
            "SELECT ReqId FROM Executions WHERE TxnId > 1 GROUP BY ReqId ORDER BY ReqId",
        )
        .unwrap();
        let needs = ProjectionNeeds::of(&stmt);
        assert!(!needs.wildcard);
        assert!(needs.needs("Executions", "ReqId"));
        // WHERE conjuncts are tracked live by load_table, not here: once
        // lowered into the scan, TxnId need not be materialised at all.
        assert!(!needs.needs("Executions", "TxnId"));
        let stmt = crate::parse("SELECT * FROM Executions").unwrap();
        assert!(ProjectionNeeds::of(&stmt).wildcard);
    }

    /// `Executions` and `ForumEvents` shaped and sized like the paper's
    /// provenance database: `executions` transactions, three events
    /// each, exactly two of them inserts of (U1, F2).
    fn provenance_db(executions: i64) -> Database {
        let db = Database::new();
        let executions_schema = Schema::builder()
            .column("TxnId", DataType::Int)
            .column("Timestamp", DataType::Timestamp)
            .column("HandlerName", DataType::Text)
            .column("ReqId", DataType::Text)
            .primary_key(&["TxnId"])
            .build()
            .unwrap();
        let events_schema = Schema::builder()
            .column("EventId", DataType::Int)
            .column("TxnId", DataType::Int)
            .column("Type", DataType::Text)
            .nullable("user_id", DataType::Text)
            .nullable("forum", DataType::Text)
            .primary_key(&["EventId"])
            .build()
            .unwrap();
        db.create_table("Executions", executions_schema).unwrap();
        db.create_table("ForumEvents", events_schema).unwrap();
        db.create_index("ForumEvents", "TxnId").unwrap();
        let mut txn = db.begin();
        for t in 0..executions {
            let req = format!("R{t}");
            // Timestamps run against TxnIds so ORDER BY has work to do.
            txn.insert(
                "Executions",
                trod_db::row![t, Value::Timestamp(1_000_000 - t), "subscribeUser", req],
            )
            .unwrap();
            for e in 0..3 {
                let racing = e == 2 && (t == 7 || t == executions - 3);
                let (user, forum) = if racing {
                    ("U1".to_string(), "F2".to_string())
                } else {
                    (format!("V{t}"), format!("F{e}"))
                };
                let kind = if e == 0 { "Read" } else { "Insert" };
                txn.insert(
                    "ForumEvents",
                    trod_db::row![t * 3 + e, t, kind, user, forum],
                )
                .unwrap();
            }
        }
        txn.commit().unwrap();
        db
    }

    #[test]
    fn the_papers_query_loads_events_first_and_probes_executions_by_key() {
        let db = provenance_db(200);
        let stmt = crate::parse(
            "SELECT Timestamp, ReqId, HandlerName, E.TxnId \
             FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
             WHERE F.Type = 'Insert' AND F.user_id = 'U1' AND F.forum = 'F2' \
             ORDER BY Timestamp ASC",
        )
        .unwrap();
        let (catalog, pending, read_ts) = bind(&db, &stmt, QueryOptions::default()).unwrap();
        let proj = ProjectionNeeds::of(&stmt);
        let (_, steps) = join_tables(&catalog, read_ts, pending, &proj).unwrap();
        assert_eq!(
            steps,
            vec![
                LoadStep {
                    table: "F".into(),
                    plan: ScanPlan::FullScan { rows: 600 },
                },
                LoadStep {
                    table: "E".into(),
                    plan: ScanPlan::KeyProbe { candidates: 2 },
                },
            ]
        );
        assert_eq!(
            db.plan_scan("Executions", &Predicate::eq("TxnId", 150i64)),
            Ok(ScanPlan::KeyProbe { candidates: 1 })
        );
        let result = execute(&db, &stmt, QueryOptions::default()).unwrap();
        assert_eq!(
            result.column_values("ReqId"),
            vec![Value::from("R197"), Value::from("R7")],
            "later TxnId, earlier Timestamp, first"
        );
        assert_eq!(
            result,
            execute_in_from_order(&db, &stmt, QueryOptions::default()).unwrap()
        );
        // Nothing selective on either side: both tables are walked, in
        // FROM order, and the join keys are not worth pushing.
        let stmt = crate::parse(
            "SELECT E.TxnId FROM Executions E JOIN ForumEvents F ON E.TxnId = F.TxnId",
        )
        .unwrap();
        let (catalog, pending, read_ts) = bind(&db, &stmt, QueryOptions::default()).unwrap();
        let proj = ProjectionNeeds::of(&stmt);
        let (rel, steps) = join_tables(&catalog, read_ts, pending, &proj).unwrap();
        assert_eq!(rel.rows.len(), 600);
        assert_eq!(steps[0].table, "E");
        assert_eq!(steps[1].plan, ScanPlan::FullScan { rows: 600 });
    }

    #[test]
    fn count_star_is_a_counting_walk_when_every_conjunct_lowers() {
        let db = provenance_db(50);
        let run = |sql: &str, as_of| {
            let stmt = crate::parse(sql).unwrap();
            let (catalog, pending, read_ts) = bind(&db, &stmt, QueryOptions { as_of }).unwrap();
            let pushed = try_count(&stmt, &catalog, read_ts, &pending).unwrap();
            let generic = execute_in_from_order(&db, &stmt, QueryOptions { as_of }).unwrap();
            if let Some(pushed) = &pushed {
                assert_eq!(pushed, &generic, "{sql}");
            }
            (pushed.is_some(), generic.rows()[0][0].clone())
        };
        assert_eq!(
            run("SELECT COUNT(*) FROM ForumEvents", None),
            (true, Value::Int(150))
        );
        assert_eq!(
            run(
                "SELECT COUNT(*) AS n FROM ForumEvents WHERE Type = 'Insert' AND TxnId < 10",
                None
            ),
            (true, Value::Int(20))
        );
        // Before the one commit nothing is visible.
        assert_eq!(
            run("SELECT COUNT(*) FROM ForumEvents", Some(0)),
            (true, Value::Int(0))
        );
        // Not pushed down: a conjunct the scan cannot evaluate, another
        // select item, a grouping, more than one table.
        for sql in [
            "SELECT COUNT(*) FROM ForumEvents WHERE EventId = TxnId",
            "SELECT COUNT(*), MAX(TxnId) FROM ForumEvents",
            "SELECT COUNT(TxnId) FROM ForumEvents",
            "SELECT COUNT(*) FROM ForumEvents GROUP BY Type",
            "SELECT COUNT(*) FROM ForumEvents LIMIT 1",
            "SELECT COUNT(*) FROM ForumEvents, Executions",
        ] {
            assert!(!run(sql, None).0, "{sql}");
        }
    }
}
