//! Verilog-2001 pretty printer for the [`crate::ast`] subset.
//!
//! Every writer appends to one `&mut String`, so printing a design makes no
//! per-expression or per-line allocations.

use crate::ast::*;
use std::fmt::Write;

/// Print a whole design.
pub fn print_design(design: &Design) -> String {
    let mut out = String::new();
    for (i, m) in design.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        write_module(&mut out, m);
    }
    out
}

/// Print one module.
pub fn print_module(m: &VModule) -> String {
    let mut out = String::new();
    write_module(&mut out, m);
    out
}

/// Print an expression with full parenthesization (safe and simple).
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

fn write_module(out: &mut String, m: &VModule) {
    for c in &m.comments {
        let _ = writeln!(out, "// {c}");
    }
    let _ = write!(out, "module {}(", m.name);
    for (i, p) in m.ports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.name);
    }
    out.push_str(");\n");

    for p in &m.ports {
        out.push_str(match p.dir {
            Dir::Input => "  input ",
            Dir::Output => "  output ",
        });
        if p.is_reg {
            out.push_str("reg ");
        }
        write_range(out, p.width);
        out.push_str(&p.name);
        out.push_str(";\n");
    }
    for n in &m.nets {
        out.push_str(match n.kind {
            NetKind::Wire => "  wire ",
            NetKind::Reg => "  reg ",
        });
        write_range(out, n.width);
        out.push_str(&n.name);
        if let (NetKind::Reg, Some(v)) = (n.kind, n.init) {
            let _ = write!(out, " = {}'d{v}", n.width);
        }
        out.push_str(";\n");
    }
    for mem in &m.memories {
        if let Some(style) = &mem.style {
            let _ = writeln!(out, "  (* ram_style = \"{style}\" *)");
        }
        out.push_str("  reg ");
        write_range(out, mem.width);
        let _ = writeln!(out, "{} [0:{}];", mem.name, mem.depth.saturating_sub(1));
    }

    for a in &m.assigns {
        if let Some(c) = &a.comment {
            let _ = writeln!(out, "  // {c}");
        }
        out.push_str("  assign ");
        out.push_str(&a.lhs);
        out.push_str(" = ");
        write_expr(out, &a.rhs);
        out.push_str(";\n");
    }

    for inst in &m.instances {
        let _ = writeln!(out, "  {} {}(", inst.module, inst.name);
        for (i, (port, expr)) in inst.connections.iter().enumerate() {
            out.push_str("    .");
            out.push_str(port);
            out.push('(');
            write_expr(out, expr);
            out.push_str(if i + 1 == inst.connections.len() {
                ")\n"
            } else {
                "),\n"
            });
        }
        out.push_str("  );\n");
    }

    for blk in &m.always {
        if blk.stmts.is_empty() {
            continue;
        }
        out.push_str("  always @(posedge clk) begin\n");
        for s in &blk.stmts {
            write_stmt(out, s, 2);
        }
        out.push_str("  end\n");
    }

    out.push_str("endmodule\n");
}

/// `[width-1:0] ` for multi-bit declarations, nothing for single bits.
fn write_range(out: &mut String, width: u32) {
    if width > 1 {
        let _ = write!(out, "[{}:0] ", width - 1);
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_stmt(out: &mut String, s: &Stmt, depth: usize) {
    indent(out, depth);
    match s {
        Stmt::NonBlocking { lhs, rhs } => {
            match lhs {
                LValue::Net(n) => out.push_str(n),
                LValue::MemElem { mem, addr } => {
                    out.push_str(mem);
                    out.push('[');
                    write_expr(out, addr);
                    out.push(']');
                }
            }
            out.push_str(" <= ");
            write_expr(out, rhs);
            out.push_str(";\n");
        }
        Stmt::If { cond, then, els } => {
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") begin\n");
            for t in then {
                write_stmt(out, t, depth + 1);
            }
            indent(out, depth);
            if els.is_empty() {
                out.push_str("end\n");
            } else {
                out.push_str("end else begin\n");
                for e in els {
                    write_stmt(out, e, depth + 1);
                }
                indent(out, depth);
                out.push_str("end\n");
            }
        }
        Stmt::Assert {
            guard,
            cond,
            message,
        } => {
            out.push_str("// synthesis translate_off\n");
            indent(out, depth);
            out.push_str("if ((");
            write_expr(out, guard);
            out.push_str(") && !(");
            write_expr(out, cond);
            let _ = writeln!(out, ")) $error(\"{message}\");");
            indent(out, depth);
            out.push_str("// synthesis translate_on\n");
        }
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Const { value, width } => {
            let _ = write!(out, "{width}'d{value}");
        }
        Expr::Ref(n) => out.push_str(n),
        Expr::MemRead { mem, addr } => {
            out.push_str(mem);
            out.push('[');
            write_expr(out, addr);
            out.push(']');
        }
        Expr::Slice { base, hi, lo } => {
            write_expr(out, base);
            if hi == lo {
                let _ = write!(out, "[{hi}]");
            } else {
                let _ = write!(out, "[{hi}:{lo}]");
            }
        }
        Expr::Unary { op, arg } => {
            out.push_str(match op {
                UnOp::Not => "~(",
                UnOp::LNot => "!(",
                UnOp::RedOr => "|(",
            });
            write_expr(out, arg);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            let (open, close) = if op.is_signed() {
                ("$signed(", ")")
            } else {
                ("", "")
            };
            out.push('(');
            out.push_str(open);
            write_expr(out, lhs);
            out.push_str(close);
            out.push(' ');
            out.push_str(op.token());
            out.push(' ');
            out.push_str(open);
            write_expr(out, rhs);
            out.push_str(close);
            out.push(')');
        }
        Expr::Ternary { cond, then, els } => {
            out.push('(');
            write_expr(out, cond);
            out.push_str(" ? ");
            write_expr(out, then);
            out.push_str(" : ");
            write_expr(out, els);
            out.push(')');
        }
        Expr::Concat(parts) => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, p);
            }
            out.push('}');
        }
        Expr::SignExtend { arg, from, to } => {
            if to <= from {
                write_expr(out, arg);
            } else {
                // {{N{arg[from-1]}}, arg}
                let _ = write!(out, "{{{{{}{{", to - from);
                write_expr(out, arg);
                let _ = write!(out, "[{}]}}}}, ", from - 1);
                write_expr(out, arg);
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_a_complete_module() {
        let mut m = VModule::new("counter");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("count", Dir::Output, 8);
        m.reg("value", 8);
        m.assign("count", Expr::r("value"));
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("en"),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::Net("value".into()),
                rhs: Expr::add(Expr::r("value"), Expr::c(1, 8)),
            }],
            els: vec![],
        });
        let text = print_module(&m);
        assert!(text.contains("module counter(clk, en, count);"), "{text}");
        assert!(text.contains("input clk;"), "{text}");
        assert!(text.contains("output [7:0] count;"), "{text}");
        assert!(text.contains("reg [7:0] value = 8'd0;"), "{text}");
        assert!(text.contains("assign count = value;"), "{text}");
        assert!(text.contains("always @(posedge clk) begin"), "{text}");
        assert!(text.contains("value <= (value + 8'd1);"), "{text}");
        assert!(text.ends_with("endmodule\n"), "{text}");
    }

    #[test]
    fn prints_signed_comparison_and_memory() {
        let mut m = VModule::new("x");
        m.port("clk", Dir::Input, 1);
        m.memory("buf", 32, 16, Some("lutram"));
        m.wire("lt", 1);
        m.assign("lt", Expr::bin(BinOp::SLt, Expr::r("a"), Expr::r("b")));
        let text = print_module(&m);
        assert!(text.contains("(* ram_style = \"lutram\" *)"), "{text}");
        assert!(text.contains("reg [31:0] buf [0:15];"), "{text}");
        assert!(text.contains("($signed(a) < $signed(b))"), "{text}");
    }

    #[test]
    fn sign_extend_prints_replication() {
        let e = Expr::SignExtend {
            arg: Box::new(Expr::r("x")),
            from: 8,
            to: 12,
        };
        assert_eq!(print_expr(&e), "{{4{x[7]}}, x}");
    }

    #[test]
    fn assertion_prints_translate_off_guard() {
        let mut m = VModule::new("a");
        m.port("clk", Dir::Input, 1);
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::bin(BinOp::ULt, Expr::r("addr"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        let text = print_module(&m);
        assert!(text.contains("translate_off"), "{text}");
        assert!(text.contains("$error(\"address out of bounds\")"), "{text}");
    }

    /// A design that uses every AST form the printer handles.
    fn every_form_design() -> Design {
        let b = Box::new;
        let mut m = VModule::new("every_form");
        m.comments.push("generated from every_form.mlir:1:1".into());
        m.port("clk", Dir::Input, 1);
        m.port("a", Dir::Input, 8);
        m.port("sel", Dir::Input, 2);
        m.port("y", Dir::Output, 16);
        m.ports[3].is_reg = true;
        m.wire("w", 16);
        m.wire("flag", 1);
        m.reg("count", 8);
        m.nets.push(NetDecl {
            name: "seed".into(),
            kind: NetKind::Reg,
            width: 4,
            init: Some(9),
        });
        m.nets.push(NetDecl {
            name: "plain".into(),
            kind: NetKind::Reg,
            width: 1,
            init: None,
        });
        m.memory("bank", 8, 16, Some("bram"));
        m.memory("tiny", 1, 1, None);
        m.assign_with_comment(
            "w",
            Expr::SignExtend {
                arg: b(Expr::r("a")),
                from: 8,
                to: 16,
            },
            "every_form.mlir:3:5",
        );
        m.assign(
            "flag",
            Expr::Unary {
                op: UnOp::RedOr,
                arg: b(Expr::SignExtend {
                    arg: b(Expr::r("sel")),
                    from: 2,
                    to: 2,
                }),
            },
        );
        m.assign(
            "mix",
            Expr::Concat(vec![
                Expr::Slice {
                    base: b(Expr::r("w")),
                    hi: 15,
                    lo: 15,
                },
                Expr::Slice {
                    base: b(Expr::r("w")),
                    hi: 7,
                    lo: 2,
                },
                Expr::MemRead {
                    mem: "bank".into(),
                    addr: b(Expr::bin(BinOp::LShr, Expr::r("a"), Expr::c(4, 8))),
                },
            ]),
        );
        m.assign(
            "pick",
            Expr::mux(
                Expr::bin(BinOp::SLt, Expr::r("a"), Expr::c(3, 8)),
                Expr::not(Expr::r("a")),
                Expr::Unary {
                    op: UnOp::LNot,
                    arg: b(Expr::bin(BinOp::AShr, Expr::r("a"), Expr::c(1, 8))),
                },
            ),
        );
        m.instances.push(Instance {
            module: "child".into(),
            name: "u_child".into(),
            connections: vec![
                ("clk".into(), Expr::r("clk")),
                (
                    "x".into(),
                    Expr::bin(BinOp::Mul, Expr::r("a"), Expr::c(2, 8)),
                ),
                ("z".into(), Expr::r("w")),
            ],
        });
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::eq(Expr::r("sel"), Expr::c(1, 2)),
            then: vec![
                Stmt::NonBlocking {
                    lhs: LValue::Net("count".into()),
                    rhs: Expr::add(Expr::r("count"), Expr::c(1, 8)),
                },
                Stmt::If {
                    cond: Expr::r("flag"),
                    then: vec![Stmt::NonBlocking {
                        lhs: LValue::MemElem {
                            mem: "bank".into(),
                            addr: Expr::Slice {
                                base: b(Expr::r("a")),
                                hi: 3,
                                lo: 0,
                            },
                        },
                        rhs: Expr::r("count"),
                    }],
                    els: vec![],
                },
            ],
            els: vec![Stmt::NonBlocking {
                lhs: LValue::Net("y".into()),
                rhs: Expr::bin(BinOp::SGe, Expr::r("w"), Expr::c(0, 16)),
            }],
        });
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("flag"),
            cond: Expr::bin(BinOp::ULt, Expr::r("a"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        // An empty always block prints nothing.
        m.always.push(AlwaysBlock::default());

        let mut child = VModule::new("child");
        child.port("clk", Dir::Input, 1);
        let mut d = Design::new();
        d.add(m).add(child);
        d
    }

    /// Pinned text for a design that uses every AST form, so any change to
    /// the printer that moves a byte of emitted Verilog fails here.
    #[test]
    fn every_form_prints_byte_identically() {
        let expect = r#"// generated from every_form.mlir:1:1
module every_form(clk, a, sel, y);
  input clk;
  input [7:0] a;
  input [1:0] sel;
  output reg [15:0] y;
  wire [15:0] w;
  wire flag;
  reg [7:0] count = 8'd0;
  reg [3:0] seed = 4'd9;
  reg plain;
  (* ram_style = "bram" *)
  reg [7:0] bank [0:15];
  reg tiny [0:0];
  // every_form.mlir:3:5
  assign w = {{8{a[7]}}, a};
  assign flag = |(sel);
  assign mix = {w[15], w[7:2], bank[(a >> 8'd4)]};
  assign pick = (($signed(a) < $signed(8'd3)) ? ~(a) : !(($signed(a) >>> $signed(8'd1))));
  child u_child(
    .clk(clk),
    .x((a * 8'd2)),
    .z(w)
  );
  always @(posedge clk) begin
    if ((sel == 2'd1)) begin
      count <= (count + 8'd1);
      if (flag) begin
        bank[a[3:0]] <= count;
      end
    end else begin
      y <= ($signed(w) >= $signed(16'd0));
    end
    // synthesis translate_off
    if ((flag) && !((a < 8'd16))) $error("address out of bounds");
    // synthesis translate_on
  end
endmodule

module child(clk);
  input clk;
endmodule
"#;
        assert_eq!(print_design(&every_form_design()), expect);
    }
}
