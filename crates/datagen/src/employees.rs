//! Synthetic Employees dataset (six period tables, paper Section 10.1).
//!
//! Time is measured in days over the domain `[0, DOMAIN_END)` (~33 years,
//! mirroring the original dataset's 1985–2002 span). At `scale = 1.0` the
//! table cardinalities track the MySQL Employees dataset: 300k employees,
//! ~2.8M salary slices, ~440k title stints, ~330k department assignments,
//! 9 departments, and a couple dozen manager stints. Benchmarks typically
//! run at `scale = 0.002 .. 0.05`, since the engine is in-memory and
//! single-threaded.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{row, Catalog, Schema, SqlType, Table};
use timeline::TimeDomain;

/// Exclusive upper bound of the time domain (days).
pub const DOMAIN_END: i64 = 12_000;

/// Employees at `scale = 1.0`, the dataset's full size.
pub const FULL_SCALE_EMPLOYEES: usize = 300_000;

/// The time domain of the generated database.
pub fn domain() -> TimeDomain {
    TimeDomain::new(0, DOMAIN_END)
}

/// Generates the six-table Employees catalog at the given scale.
///
/// Deterministic for a given `(scale, seed)`.
pub fn generate(scale: f64, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_employees = ((FULL_SCALE_EMPLOYEES as f64 * scale) as usize).max(10);
    let n_departments = 9usize;

    let mut employees = Table::with_period(
        Schema::of(&[
            ("emp_no", SqlType::Int),
            ("name", SqlType::Str),
            ("gender", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        3,
        4,
    );
    let mut salaries = Table::with_period(
        Schema::of(&[
            ("emp_no", SqlType::Int),
            ("salary", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        2,
        3,
    );
    let mut titles = Table::with_period(
        Schema::of(&[
            ("emp_no", SqlType::Int),
            ("title", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        2,
        3,
    );
    let mut dept_emp = Table::with_period(
        Schema::of(&[
            ("emp_no", SqlType::Int),
            ("dept_no", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        2,
        3,
    );
    let mut dept_manager = Table::with_period(
        Schema::of(&[
            ("emp_no", SqlType::Int),
            ("dept_no", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        2,
        3,
    );
    let mut departments = Table::with_period(
        Schema::of(&[
            ("dept_no", SqlType::Str),
            ("dept_name", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        2,
        3,
    );

    const TITLES: [&str; 7] = [
        "Engineer",
        "Senior Engineer",
        "Staff",
        "Senior Staff",
        "Assistant Engineer",
        "Technique Leader",
        "Manager",
    ];
    const DEPT_NAMES: [&str; 9] = [
        "Marketing",
        "Finance",
        "Human Resources",
        "Production",
        "Development",
        "Quality Management",
        "Sales",
        "Research",
        "Customer Service",
    ];

    for (d, name) in DEPT_NAMES.iter().enumerate().take(n_departments) {
        departments.push(row![dept_no(d), *name, 0, DOMAIN_END]);
    }

    for e in 0..n_employees {
        let emp_no = 10_001 + e as i64;
        let hire = rng.gen_range(0..DOMAIN_END - 800);
        let career = rng.gen_range(800..DOMAIN_END / 2).min(DOMAIN_END - hire);
        let leave = hire + career;
        let gender = if rng.gen_bool(0.6) { "M" } else { "F" };
        employees.push(row![emp_no, emp_name(e), gender, hire, leave]);

        // Salary slices: ~yearly raises across the career.
        let mut t = hire;
        let mut salary = rng.gen_range(38_000..62_000i64);
        while t < leave {
            let end = (t + rng.gen_range(300..430)).min(leave);
            salaries.push(row![emp_no, salary, t, end]);
            salary += rng.gen_range(500..5_000);
            t = end;
        }

        // Title stints: change every 3–6 years.
        let mut t = hire;
        let mut title_idx = rng.gen_range(0..4usize);
        while t < leave {
            let end = (t + rng.gen_range(1_000..2_200)).min(leave);
            titles.push(row![emp_no, TITLES[title_idx % TITLES.len()], t, end]);
            title_idx += 1;
            t = end;
        }

        // Department assignments: one or two stints.
        let first_dept = rng.gen_range(0..n_departments);
        if career > 2_000 && rng.gen_bool(0.15) {
            let switch = hire + career / 2;
            dept_emp.push(row![emp_no, dept_no(first_dept), hire, switch]);
            let second = (first_dept + rng.gen_range(1..n_departments)) % n_departments;
            dept_emp.push(row![emp_no, dept_no(second), switch, leave]);
        } else {
            dept_emp.push(row![emp_no, dept_no(first_dept), hire, leave]);
        }

        // A small fraction of employees manage their department for a while.
        if rng.gen_bool((24.0 / 300_000.0 / scale).clamp(0.0002, 0.02)) {
            let len = (career / 2).max(400);
            let start = hire + rng.gen_range(0..career - len + 1);
            dept_manager.push(row![emp_no, dept_no(first_dept), start, start + len]);
        }
    }

    let mut catalog = Catalog::new();
    catalog.register("employees", employees);
    catalog.register("salaries", salaries);
    catalog.register("titles", titles);
    catalog.register("dept_emp", dept_emp);
    catalog.register("dept_manager", dept_manager);
    catalog.register("departments", departments);
    catalog
}

fn dept_no(d: usize) -> String {
    format!("d{:03}", d + 1)
}

fn emp_name(e: usize) -> String {
    const FIRST: [&str; 8] = [
        "Georgi",
        "Bezalel",
        "Parto",
        "Chirstian",
        "Kyoichi",
        "Anneke",
        "Tzvetan",
        "Saniya",
    ];
    const LAST: [&str; 8] = [
        "Facello",
        "Simmel",
        "Bamford",
        "Koblick",
        "Maliniak",
        "Preusig",
        "Zielinski",
        "Kalloufi",
    ];
    format!("{} {}{}", FIRST[e % 8], LAST[(e / 8) % 8], e)
}

/// The ten-query Employee workload of Section 10.1, in this dialect.
/// Every query is a statement-level `SEQ VT` block.
pub fn queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "join-1",
            "SEQ VT (SELECT s.emp_no, s.salary, d.dept_no \
             FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no)",
        ),
        (
            "join-2",
            "SEQ VT (SELECT s.emp_no, s.salary, t.title \
             FROM salaries s JOIN titles t ON s.emp_no = t.emp_no)",
        ),
        (
            "join-3",
            "SEQ VT (SELECT m.dept_no \
             FROM dept_manager m JOIN salaries s ON m.emp_no = s.emp_no \
             WHERE s.salary > 70000)",
        ),
        (
            "join-4",
            "SEQ VT (SELECT m.emp_no, m.dept_no, s.salary, e.name \
             FROM dept_manager m JOIN salaries s ON m.emp_no = s.emp_no \
             JOIN employees e ON m.emp_no = e.emp_no)",
        ),
        (
            "agg-1",
            "SEQ VT (SELECT d.dept_no, avg(s.salary) AS avg_salary \
             FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no \
             GROUP BY d.dept_no)",
        ),
        (
            "agg-2",
            "SEQ VT (SELECT avg(s.salary) AS avg_salary \
             FROM dept_manager m JOIN salaries s ON m.emp_no = s.emp_no)",
        ),
        (
            "agg-3",
            "SEQ VT (SELECT count(*) AS big_depts FROM \
             (SELECT d.dept_no, count(*) AS c FROM dept_emp d GROUP BY d.dept_no) x \
             WHERE x.c > 21)",
        ),
        (
            "agg-join",
            "SEQ VT (SELECT e.name \
             FROM employees e \
             JOIN dept_emp de ON e.emp_no = de.emp_no \
             JOIN salaries s ON e.emp_no = s.emp_no \
             JOIN (SELECT d2.dept_no AS dept_no, max(s2.salary) AS msal \
                   FROM salaries s2 JOIN dept_emp d2 ON s2.emp_no = d2.emp_no \
                   GROUP BY d2.dept_no) m ON de.dept_no = m.dept_no \
             WHERE s.salary = m.msal)",
        ),
        (
            "diff-1",
            "SEQ VT (SELECT emp_no FROM employees \
             EXCEPT ALL SELECT emp_no FROM dept_manager)",
        ),
        (
            "diff-2",
            "SEQ VT (SELECT s.emp_no, s.salary FROM salaries s \
             EXCEPT ALL \
             SELECT m.emp_no, s2.salary FROM dept_manager m \
             JOIN salaries s2 ON m.emp_no = s2.emp_no)",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(0.001, 7);
        let b = generate(0.001, 7);
        assert_eq!(a.total_rows(), b.total_rows());
        assert_eq!(
            a.get("salaries").unwrap().rows(),
            b.get("salaries").unwrap().rows()
        );
    }

    #[test]
    fn cardinalities_track_the_original() {
        let c = generate(0.01, 42);
        let emps = c.get("employees").unwrap().len() as f64;
        let sals = c.get("salaries").unwrap().len() as f64;
        let deps = c.get("dept_emp").unwrap().len() as f64;
        // Ratios of the MySQL dataset: ~9.4 salary rows and ~1.1 dept
        // assignments per employee.
        assert!(
            (6.0..14.0).contains(&(sals / emps)),
            "salaries/emp = {}",
            sals / emps
        );
        assert!(
            (1.0..1.4).contains(&(deps / emps)),
            "dept_emp/emp = {}",
            deps / emps
        );
        assert_eq!(c.get("departments").unwrap().len(), 9);
        assert!(!c.get("dept_manager").unwrap().is_empty());
    }

    #[test]
    fn periods_lie_within_domain() {
        let c = generate(0.002, 1);
        let d = domain();
        for name in [
            "employees",
            "salaries",
            "titles",
            "dept_emp",
            "dept_manager",
        ] {
            let t = c.get(name).unwrap();
            let (b, e) = t.period().unwrap();
            for r in t.rows() {
                assert!(r.int(b) < r.int(e), "{name}: empty period");
                assert!(r.int(b) >= d.tmin().value() && r.int(e) <= d.tmax().value());
            }
        }
    }

    #[test]
    fn salary_slices_partition_careers() {
        // Per employee, salary periods must not overlap.
        let c = generate(0.002, 3);
        let t = c.get("salaries").unwrap();
        let mut per_emp: std::collections::HashMap<i64, Vec<(i64, i64)>> = Default::default();
        for r in t.rows() {
            per_emp
                .entry(r.int(0))
                .or_default()
                .push((r.int(2), r.int(3)));
        }
        for (_, mut ivs) in per_emp {
            ivs.sort_unstable();
            for w in ivs.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping salary slices");
            }
        }
    }

    #[test]
    fn workload_queries_parse() {
        for (name, sql) in queries() {
            assert!(sql::parse_statement(sql).is_ok(), "{name} fails to parse");
        }
    }
}
