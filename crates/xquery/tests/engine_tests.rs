//! End-to-end engine tests: XQuery semantics, the paper's example
//! queries, and strategy equivalence at the query level.

use standoff_core::StandoffStrategy;
use standoff_xquery::{Engine, EngineOptions};

/// The Figure 1 multimedia document (time positions in seconds).
const FIGURE1: &str = r#"<sample>
  <video>
    <shot id="Intro" start="0" end="8"/>
    <shot id="Interview" start="8" end="64"/>
    <shot id="Outro" start="64" end="94"/>
  </video>
  <audio>
    <music artist="U2" start="0" end="31"/>
    <music artist="Bach" start="52" end="94"/>
  </audio>
</sample>"#;

fn engine_with_figure1() -> Engine {
    let mut e = Engine::new();
    e.load_document("sample.xml", FIGURE1).unwrap();
    e
}

fn run(engine: &mut Engine, q: &str) -> Vec<String> {
    engine
        .run(q)
        .unwrap_or_else(|e| panic!("query failed: {e}\n  {q}"))
        .as_strings()
        .to_vec()
}

// ---------- plain XQuery semantics ----------

#[test]
fn arithmetic_and_literals() {
    let mut e = Engine::new();
    assert_eq!(run(&mut e, "1 + 2 * 3"), ["7"]);
    assert_eq!(run(&mut e, "(1 + 2) * 3"), ["9"]);
    assert_eq!(run(&mut e, "7 div 2"), ["3.5"]);
    assert_eq!(run(&mut e, "8 div 2"), ["4"]);
    assert_eq!(run(&mut e, "7 idiv 2"), ["3"]);
    assert_eq!(run(&mut e, "7 mod 2"), ["1"]);
    assert_eq!(run(&mut e, "-(3 + 4)"), ["-7"]);
    assert_eq!(run(&mut e, "\"con\" , \"cat\""), ["con", "cat"]);
}

#[test]
fn ranges_and_sequences() {
    let mut e = Engine::new();
    assert_eq!(run(&mut e, "1 to 4"), ["1", "2", "3", "4"]);
    assert_eq!(run(&mut e, "count(3 to 1)"), ["0"]);
    assert_eq!(run(&mut e, "count(())"), ["0"]);
    assert_eq!(run(&mut e, "count((1, 2, (3, 4)))"), ["4"]);
}

#[test]
fn flwor_basics() {
    let mut e = Engine::new();
    assert_eq!(
        run(&mut e, "for $x in (1, 2, 3) return $x * 10"),
        ["10", "20", "30"]
    );
    assert_eq!(
        run(&mut e, "for $x in (1, 2, 3) where $x >= 2 return $x"),
        ["2", "3"]
    );
    assert_eq!(
        run(&mut e, "for $x in (1, 2) let $y := $x + 10 return $y"),
        ["11", "12"]
    );
}

#[test]
fn paper_section41_nested_loop_example() {
    // The loop-lifting example from §4.1 of the paper.
    let mut e = Engine::new();
    let result = run(
        &mut e,
        r#"for $x in ("twenty", "thirty")
           for $y in ("one", "two")
           let $z := ($x, $y)
           return $z"#,
    );
    assert_eq!(
        result,
        ["twenty", "one", "twenty", "two", "thirty", "one", "thirty", "two"]
    );
}

#[test]
fn positional_at_variable() {
    let mut e = Engine::new();
    assert_eq!(
        run(
            &mut e,
            r#"for $x at $i in ("a", "b", "c") return concat($i, $x)"#
        ),
        ["1a", "2b", "3c"]
    );
}

#[test]
fn order_by() {
    let mut e = Engine::new();
    assert_eq!(
        run(&mut e, "for $x in (3, 1, 2) order by $x return $x"),
        ["1", "2", "3"]
    );
    assert_eq!(
        run(
            &mut e,
            "for $x in (3, 1, 2) order by $x descending return $x"
        ),
        ["3", "2", "1"]
    );
    // order by inside an outer loop sorts within each outer iteration.
    assert_eq!(
        run(
            &mut e,
            "for $g in (1, 2) return count(for $x in (3, 1) order by $x return $x)"
        ),
        ["2", "2"]
    );
}

#[test]
fn if_then_else_and_logic() {
    let mut e = Engine::new();
    assert_eq!(
        run(
            &mut e,
            "for $x in (1, 2, 3) return if ($x mod 2 = 0) then \"even\" else \"odd\""
        ),
        ["odd", "even", "odd"]
    );
    assert_eq!(run(&mut e, "true() and false()"), ["false"]);
    assert_eq!(run(&mut e, "true() or false()"), ["true"]);
    assert_eq!(run(&mut e, "not(())"), ["true"]);
}

#[test]
fn quantified_expressions() {
    let mut e = Engine::new();
    assert_eq!(
        run(&mut e, "some $x in (1, 2, 3) satisfies $x > 2"),
        ["true"]
    );
    assert_eq!(
        run(&mut e, "every $x in (1, 2, 3) satisfies $x > 2"),
        ["false"]
    );
    assert_eq!(run(&mut e, "every $x in () satisfies $x > 2"), ["true"]);
    assert_eq!(run(&mut e, "some $x in () satisfies $x > 2"), ["false"]);
}

#[test]
fn general_comparison_is_existential() {
    let mut e = Engine::new();
    assert_eq!(run(&mut e, "(1, 2, 3) = 3"), ["true"]);
    assert_eq!(run(&mut e, "(1, 2, 3) = 9"), ["false"]);
    assert_eq!(run(&mut e, "(1, 2) != (1, 2)"), ["true"]); // 1 != 2
}

#[test]
fn aggregates() {
    let mut e = Engine::new();
    assert_eq!(run(&mut e, "sum((1, 2, 3))"), ["6"]);
    assert_eq!(run(&mut e, "sum(())"), ["0"]);
    assert_eq!(run(&mut e, "avg((2, 4))"), ["3"]);
    assert_eq!(run(&mut e, "max((3, 1, 4, 1, 5))"), ["5"]);
    assert_eq!(run(&mut e, "min((3, 1, 4))"), ["1"]);
    assert_eq!(run(&mut e, "count(avg(()))"), ["0"]);
}

#[test]
fn string_functions() {
    let mut e = Engine::new();
    assert_eq!(run(&mut e, "concat(\"a\", \"b\", \"c\")"), ["abc"]);
    assert_eq!(run(&mut e, "contains(\"auction\", \"ct\")"), ["true"]);
    assert_eq!(run(&mut e, "starts-with(\"auction\", \"au\")"), ["true"]);
    assert_eq!(run(&mut e, "string-length(\"hello\")"), ["5"]);
    assert_eq!(run(&mut e, "substring(\"hello\", 2, 3)"), ["ell"]);
    assert_eq!(run(&mut e, "upper-case(\"abc\")"), ["ABC"]);
    assert_eq!(
        run(&mut e, "string-join((\"a\", \"b\", \"c\"), \"-\")"),
        ["a-b-c"]
    );
    assert_eq!(run(&mut e, "normalize-space(\"  a   b \")"), ["a b"]);
}

#[test]
fn distinct_values_and_reverse() {
    let mut e = Engine::new();
    assert_eq!(
        run(&mut e, "distinct-values((1, 2, 1, 3, 2))"),
        ["1", "2", "3"]
    );
    assert_eq!(run(&mut e, "reverse((1, 2, 3))"), ["3", "2", "1"]);
    assert_eq!(
        run(&mut e, "subsequence((1,2,3,4,5), 2, 3)"),
        ["2", "3", "4"]
    );
}

// ---------- paths ----------

#[test]
fn path_navigation() {
    let mut e = engine_with_figure1();
    assert_eq!(run(&mut e, r#"count(doc("sample.xml")//shot)"#), ["3"]);
    assert_eq!(
        run(&mut e, r#"doc("sample.xml")/sample/video/shot[1]/@id"#),
        ["Intro"]
    );
    assert_eq!(
        run(&mut e, r#"doc("sample.xml")//shot[@id = "Outro"]/@start"#),
        ["64"]
    );
    assert_eq!(
        run(&mut e, r#"count(doc("sample.xml")//shot/parent::video)"#),
        ["1"]
    );
    assert_eq!(
        run(&mut e, r#"doc("sample.xml")//music[last()]/@artist"#),
        ["Bach"]
    );
    assert_eq!(
        run(&mut e, r#"doc("sample.xml")//shot[position() = 2]/@id"#),
        ["Interview"]
    );
    // Positional predicates number per context node: the first `b` of
    // *each* `a`, for tree and StandOff steps alike.
    e.load_document("n.xml", "<r><a><b/><b/></a><a><b/><b/></a></r>")
        .unwrap();
    assert_eq!(run(&mut e, r#"count(doc("n.xml")/r/a/b[1])"#), ["2"]);
    assert_eq!(run(&mut e, r#"count(doc("n.xml")/r/a/b[last()])"#), ["2"]);
    e.load_document(
        "so.xml",
        r#"<d><s start="0" end="9"/><s start="10" end="19"/>
             <w start="0" end="3"/><w start="4" end="9"/>
             <w start="10" end="13"/><w start="14" end="19"/></d>"#,
    )
    .unwrap();
    assert_eq!(
        run(&mut e, r#"doc("so.xml")//s/select-narrow::w[1]/@start"#),
        ["0", "10"]
    );
}

#[test]
fn reverse_and_sibling_axes() {
    let mut e = engine_with_figure1();
    assert_eq!(
        run(&mut e, r#"count(doc("sample.xml")//music/ancestor::*)"#),
        ["2"] // sample, audio
    );
    assert_eq!(
        run(
            &mut e,
            r#"doc("sample.xml")//shot[@id="Interview"]/following-sibling::shot/@id"#
        ),
        ["Outro"]
    );
    assert_eq!(
        run(
            &mut e,
            r#"doc("sample.xml")//shot[@id="Interview"]/preceding-sibling::shot/@id"#
        ),
        ["Intro"]
    );
}

#[test]
fn union_of_paths() {
    let mut e = engine_with_figure1();
    assert_eq!(
        run(
            &mut e,
            r#"count(doc("sample.xml")//shot | doc("sample.xml")//music)"#
        ),
        ["5"]
    );
}

// ---------- the paper's Table §3.1 ----------

#[test]
fn table_31_all_four_axes() {
    let mut e = engine_with_figure1();
    let u2 = r#"doc("sample.xml")//music[@artist = "U2"]"#;
    assert_eq!(
        run(&mut e, &format!("{u2}/select-narrow::shot/@id")),
        ["Intro"]
    );
    assert_eq!(
        run(&mut e, &format!("{u2}/select-wide::shot/@id")),
        ["Intro", "Interview"]
    );
    assert_eq!(
        run(&mut e, &format!("{u2}/reject-narrow::shot/@id")),
        ["Interview", "Outro"]
    );
    assert_eq!(
        run(&mut e, &format!("{u2}/reject-wide::shot/@id")),
        ["Outro"]
    );
}

#[test]
fn table_31_under_every_strategy() {
    for strategy in StandoffStrategy::ALL {
        let mut e = Engine::with_options(EngineOptions {
            strategy,
            ..Default::default()
        });
        e.load_document("sample.xml", FIGURE1).unwrap();
        let u2 = r#"doc("sample.xml")//music[@artist = "U2"]"#;
        assert_eq!(
            run(&mut e, &format!("{u2}/select-narrow::shot/@id")),
            ["Intro"],
            "select-narrow under {strategy}"
        );
        assert_eq!(
            run(&mut e, &format!("{u2}/reject-wide::shot/@id")),
            ["Outro"],
            "reject-wide under {strategy}"
        );
    }
}

#[test]
fn standoff_builtin_functions() {
    let mut e = engine_with_figure1();
    // Alternative 3: built-in functions, with and without candidates.
    assert_eq!(
        run(
            &mut e,
            r#"select-narrow(doc("sample.xml")//music[@artist = "U2"],
                             doc("sample.xml")//shot)/@id"#
        ),
        ["Intro"]
    );
    assert_eq!(
        run(
            &mut e,
            r#"select-wide(doc("sample.xml")//music[@artist = "U2"])/self::shot/@id"#
        ),
        ["Intro", "Interview"]
    );
}

// ---------- Figures 2 and 3: the UDF baselines run as real XQuery ----------

#[test]
fn figure2_udf_matches_builtin() {
    let mut e = engine_with_figure1();
    // The paper's Figure 2 function (no candidate sequence), verbatim
    // except for the document binding.
    let udf = r#"
        declare module standoff = "http://w3c.org/tr/standoff/"
        declare function my-select-narrow($input as xs:anyNode*)
          as xs:anyNode*
        {
          (for $q in $input
           for $p in root($q)//*
           where $p/@start >= $q/@start
             and $p/@end <= $q/@end
           return $p)/.
        }
        my-select-narrow(doc("sample.xml")//music[@artist = "U2"])/self::shot/@id"#;
    assert_eq!(run(&mut e, udf), ["Intro"]);
}

#[test]
fn figure3_udf_with_candidates_matches_builtin() {
    let mut e = engine_with_figure1();
    let udf = r#"
        declare function my-select-narrow($input as xs:anyNode*,
                                          $candidates as xs:anyNode*)
          as xs:anyNode*
        {
          (for $q in $input
           for $p in $candidates
           where $p/@start >= $q/@start
             and $p/@end <= $q/@end
             and root($p) is root($q)
           return $p)/.
        }
        my-select-narrow(doc("sample.xml")//music[@artist = "U2"],
                         doc("sample.xml")//shot)/@id"#;
    assert_eq!(run(&mut e, udf), ["Intro"]);
}

// ---------- configurable representation (§2) ----------

#[test]
fn custom_attribute_names_via_options() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        r#"<d><a from="0" to="10"/><b from="2" to="5"/></d>"#,
    )
    .unwrap();
    let q = r#"
        declare option standoff-start "from";
        declare option standoff-end "to";
        count(doc("d.xml")//a/select-narrow::b)"#;
    assert_eq!(run(&mut e, q), ["1"]);
    // Without the options nothing is annotated: empty join.
    assert_eq!(
        run(&mut e, r#"count(doc("d.xml")//a/select-narrow::b)"#),
        ["0"]
    );
}

#[test]
fn element_representation_via_options() {
    let mut e = Engine::new();
    e.load_document(
        "fs.xml",
        "<fs>\
           <file name=\"big\">\
             <region><start>0</start><end>99</end></region>\
             <region><start>200</start><end>299</end></region>\
           </file>\
           <block name=\"inside\"><region><start>10</start><end>20</end></region></block>\
           <block name=\"gap\"><region><start>120</start><end>130</end></region></block>\
           <block name=\"split\">\
             <region><start>50</start><end>60</end></region>\
             <region><start>210</start><end>220</end></region>\
           </block>\
         </fs>",
    )
    .unwrap();
    let prolog = r#"declare option standoff-region "region";"#;
    // Containment of multi-region areas is ∀∃: "split" has both pieces
    // inside pieces of "big"; "gap" falls between them.
    assert_eq!(
        run(
            &mut e,
            &format!(r#"{prolog} doc("fs.xml")//file/select-narrow::block/@name"#)
        ),
        ["inside", "split"]
    );
    assert_eq!(
        run(
            &mut e,
            &format!(r#"{prolog} doc("fs.xml")//file/reject-narrow::block/@name"#)
        ),
        ["gap"]
    );
}

// ---------- constructors ----------

#[test]
fn element_construction() {
    let mut e = Engine::new();
    let r = e.run(r#"<result n="{1+2}">{ 40 + 2 }</result>"#).unwrap();
    assert_eq!(r.as_xml(), r#"<result n="3">42</result>"#);
}

#[test]
fn constructor_copies_nodes() {
    let mut e = engine_with_figure1();
    let r = e
        .run(r#"<shots>{ doc("sample.xml")//shot[@id = "Intro"] }</shots>"#)
        .unwrap();
    assert_eq!(
        r.as_xml(),
        r#"<shots><shot id="Intro" start="0" end="8"/></shots>"#
    );
}

#[test]
fn constructor_in_flwor_builds_one_element_per_iteration() {
    let mut e = Engine::new();
    let r = e.run("for $i in (1, 2, 3) return <n v=\"{$i}\"/>").unwrap();
    assert_eq!(r.as_xml(), r#"<n v="1"/><n v="2"/><n v="3"/>"#);
}

#[test]
fn nested_constructors_and_atom_spacing() {
    let mut e = Engine::new();
    let r = e.run("<a><b>{ (1, 2) }</b><c/></a>").unwrap();
    assert_eq!(r.as_xml(), "<a><b>1 2</b><c/></a>");
}

// ---------- user-defined functions ----------

#[test]
fn recursive_udf_terminates() {
    let mut e = Engine::new();
    let q = r#"
        declare function fact($n) {
          if ($n <= 1) then 1 else $n * fact($n - 1)
        };
        fact(6)"#;
    assert_eq!(run(&mut e, q), ["720"]);
}

#[test]
fn runaway_recursion_is_caught() {
    let mut e = Engine::new();
    let q = r#"
        declare function loop($n) { loop($n + 1) };
        loop(1)"#;
    let err = e.run(q).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
}

#[test]
fn udf_sees_globals_but_not_caller_locals() {
    let mut e = Engine::new();
    let q = r#"
        declare variable $g := 100;
        declare function add-g($x) { $x + $g };
        for $local in (1, 2) return add-g($local)"#;
    assert_eq!(run(&mut e, q), ["101", "102"]);

    let bad = r#"
        declare function f() { $hidden };
        let $hidden := 5 return f()"#;
    assert!(e.run(bad).is_err(), "caller locals must not leak into UDFs");
}

// ---------- error reporting ----------

#[test]
fn missing_document_is_dynamic_error() {
    let mut e = Engine::new();
    let err = e.run(r#"doc("nope.xml")"#).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
}

#[test]
fn undeclared_variable_is_static_error() {
    let mut e = Engine::new();
    let err = e.run("$nope").unwrap_err();
    assert!(err.to_string().contains("undeclared variable"), "{err}");
}

#[test]
fn unknown_function_is_static_error() {
    let mut e = Engine::new();
    let err = e.run("frobnicate(1)").unwrap_err();
    assert!(err.to_string().contains("unknown function"), "{err}");
}

#[test]
fn division_by_zero() {
    let mut e = Engine::new();
    assert!(e.run("1 idiv 0").is_err());
}

// ---------- loop-lifting depth ----------

#[test]
fn deeply_nested_loops() {
    let mut e = Engine::new();
    // 4 nested loops over 4 items = 256 innermost iterations.
    let q = r#"
        count(for $a in 1 to 4
              for $b in 1 to 4
              for $c in 1 to 4
              for $d in 1 to 4
              return $a * $b * $c * $d)"#;
    assert_eq!(run(&mut e, q), ["256"]);
}

#[test]
fn variable_lifting_across_scopes() {
    let mut e = Engine::new();
    // $x referenced two scopes down.
    let q = "for $x in (1, 2) return for $y in (10, 20) return $x + $y";
    assert_eq!(run(&mut e, q), ["11", "21", "12", "22"]);
}

#[test]
fn standoff_step_inside_nested_loops() {
    // The shape that separates basic from loop-lifted merge joins.
    let mut e = engine_with_figure1();
    let q = r#"
        for $m in doc("sample.xml")//music
        return count($m/select-wide::shot)"#;
    assert_eq!(run(&mut e, q), ["2", "2"]); // U2: Intro+Interview; Bach: Interview+Outro
}
