// Package sema performs name resolution and type checking for mini-C.
//
// The checker is permissive on purpose: scalar conversions (including
// pointer <-> integer and pointer <-> pointer) are always legal, matching
// the "weak type systems" row of the paper's Table 1 that CGCM handles and
// prior frameworks do not. What sema does enforce is structural sanity:
// names resolve, arities match, lvalues are lvalues, kernels return void,
// and launches name kernels.
package sema

import (
	"fmt"

	"cgcm/internal/minic/ast"
	"cgcm/internal/minic/token"
	"cgcm/internal/minic/types"
)

// SymKind classifies a resolved symbol.
type SymKind int

// Symbol kinds.
const (
	GlobalVar SymKind = iota
	LocalVar
	ParamVar
	FuncSym
	BuiltinSym
)

func (k SymKind) String() string {
	switch k {
	case GlobalVar:
		return "global"
	case LocalVar:
		return "local"
	case ParamVar:
		return "param"
	case FuncSym:
		return "func"
	case BuiltinSym:
		return "builtin"
	}
	return "?"
}

// Symbol is a resolved name.
type Symbol struct {
	Name string
	Kind SymKind
	Type *types.Type
	Decl ast.Node // *ast.VarDecl, *ast.Param, or *ast.FuncDecl
}

// Info holds the results of semantic analysis.
type Info struct {
	File    *ast.File
	Funcs   map[string]*ast.FuncDecl
	Globals []*ast.VarDecl
	// Uses maps each identifier to its resolved symbol.
	Uses map[*ast.Ident]*Symbol
	// Locals lists, per function, every local VarDecl in declaration order.
	Locals map[*ast.FuncDecl][]*ast.VarDecl
}

// Error is a semantic error with a position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func elemIsStruct(t *types.Type) bool {
	for t.IsArray() {
		e := t.Elem()
		t = e
	}
	return t.IsStruct()
}

type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

func (s *scope) declare(sym *Symbol) bool {
	if _, ok := s.syms[sym.Name]; ok {
		return false
	}
	s.syms[sym.Name] = sym
	return true
}

type checker struct {
	info    *Info
	errs    []error
	globals *scope
	cur     *ast.FuncDecl
	scope   *scope
}

// Check resolves and type-checks file. It returns the analysis results and
// any errors; the Info is usable when errors are nil.
func Check(file *ast.File) (*Info, []error) {
	c := &checker{
		info: &Info{
			File:   file,
			Funcs:  make(map[string]*ast.FuncDecl),
			Uses:   make(map[*ast.Ident]*Symbol),
			Locals: make(map[*ast.FuncDecl][]*ast.VarDecl),
		},
		globals: &scope{syms: make(map[string]*Symbol)},
	}
	// Pass 1: declare all globals and functions so forward references work.
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			if IsBuiltin(d.Name) {
				c.errorf(d.Pos(), "%s redeclares a builtin", d.Name)
				continue
			}
			t := d.Type
			sym := &Symbol{Name: d.Name, Kind: GlobalVar, Type: &t, Decl: d}
			if !c.globals.declare(sym) {
				c.errorf(d.Pos(), "redeclaration of %s", d.Name)
			}
			c.info.Globals = append(c.info.Globals, d)
		case *ast.FuncDecl:
			if IsBuiltin(d.Name) {
				c.errorf(d.Pos(), "%s redeclares a builtin", d.Name)
				continue
			}
			if prev, ok := c.info.Funcs[d.Name]; ok {
				if prev.Body != nil && d.Body != nil {
					c.errorf(d.Pos(), "redefinition of %s", d.Name)
				}
				if d.Body != nil {
					c.info.Funcs[d.Name] = d
					c.globals.syms[d.Name].Decl = d
				}
				continue
			}
			var params []*types.Type
			for _, p := range d.Params {
				t := p.Type
				params = append(params, t.Decay())
			}
			res := d.Result
			sym := &Symbol{Name: d.Name, Kind: FuncSym, Type: types.FuncType(&res, params), Decl: d}
			c.globals.declare(sym)
			c.info.Funcs[d.Name] = d
		}
	}
	// Pass 2: check global initializers and function bodies.
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			c.scope = c.globals
			c.cur = nil
			c.checkVarInit(d)
		case *ast.FuncDecl:
			if d.Body != nil && c.info.Funcs[d.Name] == d {
				c.checkFunc(d)
			}
		}
	}
	if _, ok := c.info.Funcs["main"]; !ok {
		c.errorf(token.Pos{Line: 1, Col: 1, File: file.Name}, "program has no main function")
	}
	return c.info, c.errs
}

func (c *checker) errorf(pos token.Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) checkVarInit(d *ast.VarDecl) {
	t := d.Type
	if t.IsVoid() {
		c.errorf(d.Pos(), "variable %s has void type", d.Name)
	}
	if (t.IsStruct() || (t.IsArray() && elemIsStruct(&t))) && (d.Init != nil || len(d.InitList) > 0) {
		c.errorf(d.Pos(), "struct variables cannot have initializers; assign fields")
		return
	}
	if d.Init != nil {
		it := c.checkExpr(d.Init)
		if !it.ConvertibleTo(&t) {
			c.errorf(d.Pos(), "cannot initialize %s (%s) with %s", d.Name, t.String(), it)
		}
	}
	for _, e := range d.InitList {
		c.checkExpr(e)
	}
	if len(d.InitList) > 0 {
		if !t.IsArray() {
			c.errorf(d.Pos(), "brace initializer on non-array %s", d.Name)
		} else if int64(len(d.InitList)) > t.Len() {
			c.errorf(d.Pos(), "too many initializers for %s", d.Name)
		}
	}
}

func (c *checker) checkFunc(f *ast.FuncDecl) {
	c.cur = f
	c.scope = &scope{parent: c.globals, syms: make(map[string]*Symbol)}
	if f.Kernel && !f.Result.IsVoid() {
		c.errorf(f.Pos(), "kernel %s must return void", f.Name)
	}
	if f.Result.IsStruct() {
		c.errorf(f.Pos(), "%s returns a struct by value; return a pointer instead", f.Name)
	}
	for _, p := range f.Params {
		t := p.Type
		dt := t.Decay()
		if dt.IsStruct() {
			c.errorf(p.Pos(), "parameter %s passes a struct by value; pass a pointer instead", p.Name)
		}
		sym := &Symbol{Name: p.Name, Kind: ParamVar, Type: dt, Decl: p}
		if p.Name != "" && !c.scope.declare(sym) {
			c.errorf(p.Pos(), "duplicate parameter %s", p.Name)
		}
		if f.Kernel && dt.IndirectionDepth() > 2 {
			// CGCM restriction (§2.3): no pointers with three or more
			// degrees of indirection may reach the GPU.
			c.errorf(p.Pos(), "kernel %s: parameter %s has indirection depth %d > 2",
				f.Name, p.Name, dt.IndirectionDepth())
		}
	}
	c.checkStmt(f.Body)
	c.cur = nil
}

func (c *checker) pushScope() { c.scope = &scope{parent: c.scope, syms: make(map[string]*Symbol)} }
func (c *checker) popScope()  { c.scope = c.scope.parent }

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeclStmt:
		d := s.Decl
		c.checkVarInit(d)
		t := d.Type
		sym := &Symbol{Name: d.Name, Kind: LocalVar, Type: &t, Decl: d}
		if !c.scope.declare(sym) {
			c.errorf(d.Pos(), "redeclaration of %s", d.Name)
		}
		if c.cur != nil {
			c.info.Locals[c.cur] = append(c.info.Locals[c.cur], d)
		}
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.BlockStmt:
		if !s.NoScope {
			c.pushScope()
		}
		for _, st := range s.List {
			c.checkStmt(st)
		}
		if !s.NoScope {
			c.popScope()
		}
	case *ast.IfStmt:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.ForStmt:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond)
		}
		if s.Post != nil {
			c.checkExpr(s.Post)
		}
		c.checkStmt(s.Body)
		c.popScope()
	case *ast.WhileStmt:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Body)
	case *ast.ReturnStmt:
		res := c.cur.Result
		if s.Value == nil {
			if !res.IsVoid() {
				c.errorf(s.Pos(), "missing return value in %s", c.cur.Name)
			}
			return
		}
		if res.IsVoid() {
			c.errorf(s.Pos(), "return with value in void function %s", c.cur.Name)
			c.checkExpr(s.Value)
			return
		}
		vt := c.checkExpr(s.Value)
		if !vt.ConvertibleTo(&res) {
			c.errorf(s.Pos(), "cannot return %s as %s", vt, res.String())
		}
	case *ast.BreakStmt, *ast.ContinueStmt:
		// Loop nesting is validated structurally by the IR builder.
	case *ast.LaunchStmt:
		c.checkLaunch(s)
	}
}

func (c *checker) checkLaunch(s *ast.LaunchStmt) {
	if c.cur != nil && c.cur.Kernel {
		c.errorf(s.Pos(), "kernels may not launch kernels")
	}
	c.checkExprAs(s.Grid, types.IntType)
	c.checkExprAs(s.Block, types.IntType)
	f, ok := c.info.Funcs[s.Kernel]
	if !ok {
		c.errorf(s.Pos(), "launch of undefined kernel %s", s.Kernel)
		for _, a := range s.Args {
			c.checkExpr(a)
		}
		return
	}
	if !f.Kernel {
		c.errorf(s.Pos(), "%s is not a __global__ kernel", s.Kernel)
	}
	if len(s.Args) != len(f.Params) {
		c.errorf(s.Pos(), "kernel %s expects %d arguments, got %d", s.Kernel, len(f.Params), len(s.Args))
	}
	for i, a := range s.Args {
		at := c.checkExpr(a)
		if i < len(f.Params) {
			pt := f.Params[i].Type
			dpt := pt.Decay()
			if !at.ConvertibleTo(dpt) {
				c.errorf(a.Pos(), "argument %d to %s: cannot convert %s to %s", i+1, s.Kernel, at, dpt)
			}
		}
	}
}

func (c *checker) checkExprAs(e ast.Expr, want *types.Type) {
	t := c.checkExpr(e)
	if !t.ConvertibleTo(want) {
		c.errorf(e.Pos(), "cannot convert %s to %s", t, want)
	}
}

// isLvalue reports whether e denotes an assignable location.
func isLvalue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.MemberExpr:
		return e.Arrow || isLvalue(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.Star
	}
	return false
}

func (c *checker) checkExpr(e ast.Expr) *types.Type {
	t := c.exprType(e)
	e.SetType(t)
	return t
}

func (c *checker) exprType(e ast.Expr) *types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		sym := c.scope.lookup(e.Name)
		if sym == nil {
			c.errorf(e.Pos(), "undefined: %s", e.Name)
			return types.IntType
		}
		if sym.Kind == FuncSym {
			c.errorf(e.Pos(), "%s is a function; mini-C has no function values", e.Name)
			return types.IntType
		}
		c.info.Uses[e] = sym
		return sym.Type
	case *ast.IntLit:
		return types.IntType
	case *ast.FloatLit:
		return types.FloatType
	case *ast.StringLit:
		return types.PointerTo(types.CharType)
	case *ast.BinaryExpr:
		return c.binaryType(e)
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X)
		switch e.Op {
		case token.Minus, token.Tilde:
			if !xt.IsArithmetic() {
				c.errorf(e.Pos(), "operator %s requires arithmetic operand, got %s", e.Op, xt)
			}
			if e.Op == token.Tilde {
				return types.IntType
			}
			return xt.Decay()
		case token.Not:
			return types.IntType
		case token.Star:
			dt := xt.Decay()
			if !dt.IsPointer() {
				c.errorf(e.Pos(), "cannot dereference non-pointer %s", xt)
				return types.IntType
			}
			if dt.Elem().IsVoid() {
				c.errorf(e.Pos(), "cannot dereference void*")
				return types.IntType
			}
			return dt.Elem()
		case token.Amp:
			if !isLvalue(e.X) {
				c.errorf(e.Pos(), "cannot take address of non-lvalue")
			}
			return types.PointerTo(xt)
		}
		return types.IntType
	case *ast.IndexExpr:
		xt := c.checkExpr(e.X).Decay()
		c.checkExprAs(e.Index, types.IntType)
		if !xt.IsPointer() {
			c.errorf(e.Pos(), "cannot index non-pointer %s", xt)
			return types.IntType
		}
		if xt.Elem().IsVoid() {
			c.errorf(e.Pos(), "cannot index void*")
			return types.IntType
		}
		return xt.Elem()
	case *ast.MemberExpr:
		xt := c.checkExpr(e.X)
		var st *types.Type
		if e.Arrow {
			dt := xt.Decay()
			if !dt.IsPointer() || !dt.Elem().IsStruct() {
				c.errorf(e.Pos(), "-> requires a pointer to struct, got %s", xt)
				return types.IntType
			}
			st = dt.Elem()
		} else {
			if !xt.IsStruct() {
				c.errorf(e.Pos(), ". requires a struct, got %s", xt)
				return types.IntType
			}
			st = xt
		}
		f, ok := st.FieldByName(e.Name)
		if !ok {
			c.errorf(e.Pos(), "%s has no field %s", st, e.Name)
			return types.IntType
		}
		return f.Type
	case *ast.CallExpr:
		return c.callType(e)
	case *ast.AssignExpr:
		if !isLvalue(e.Lhs) {
			c.errorf(e.Pos(), "left side of assignment is not an lvalue")
		}
		lt := c.checkExpr(e.Lhs)
		rt := c.checkExpr(e.Rhs)
		if lt.IsStruct() || rt.IsStruct() {
			c.errorf(e.Pos(), "whole-struct assignment is not supported; assign fields")
			return lt
		}
		if !rt.ConvertibleTo(lt) {
			c.errorf(e.Pos(), "cannot assign %s to %s", rt, lt)
		}
		if e.Op != token.Assign && !lt.Decay().IsPointer() && !lt.IsArithmetic() {
			c.errorf(e.Pos(), "compound assignment requires arithmetic or pointer lvalue")
		}
		return lt
	case *ast.IncDecExpr:
		if !isLvalue(e.X) {
			c.errorf(e.Pos(), "operand of %s is not an lvalue", e.Op)
		}
		xt := c.checkExpr(e.X)
		if !xt.IsArithmetic() && !xt.Decay().IsPointer() {
			c.errorf(e.Pos(), "operand of %s must be arithmetic or pointer", e.Op)
		}
		return xt
	case *ast.CastExpr:
		xt := c.checkExpr(e.X)
		to := e.To
		if !xt.ConvertibleTo(&to) {
			c.errorf(e.Pos(), "cannot convert %s to %s", xt, to.String())
		}
		return &to
	case *ast.CondExpr:
		c.checkExpr(e.Cond)
		tt := c.checkExpr(e.Then)
		et := c.checkExpr(e.Else)
		return types.Common(tt, et)
	case *ast.SizeofExpr:
		if e.OfExpr != nil {
			c.checkExpr(e.OfExpr)
		}
		return types.IntType
	}
	c.errorf(e.Pos(), "unsupported expression")
	return types.IntType
}

func (c *checker) binaryType(e *ast.BinaryExpr) *types.Type {
	xt := c.checkExpr(e.X).Decay()
	yt := c.checkExpr(e.Y).Decay()
	switch e.Op {
	case token.Comma:
		return yt
	case token.AmpAmp, token.PipePip,
		token.Eq, token.Ne, token.Lt, token.Gt, token.Le, token.Ge:
		return types.IntType
	case token.Plus:
		if xt.IsPointer() && yt.IsInteger() {
			return xt
		}
		if yt.IsPointer() && xt.IsInteger() {
			return yt
		}
	case token.Minus:
		if xt.IsPointer() && yt.IsInteger() {
			return xt
		}
		if xt.IsPointer() && yt.IsPointer() {
			return types.IntType // pointer difference, in elements
		}
	case token.Percent, token.Amp, token.Pipe, token.Caret, token.Shl, token.Shr:
		if !xt.IsInteger() || !yt.IsInteger() {
			c.errorf(e.Pos(), "operator %s requires integer operands, got %s and %s", e.Op, xt, yt)
		}
		return types.IntType
	}
	if xt.IsPointer() || yt.IsPointer() {
		c.errorf(e.Pos(), "invalid pointer arithmetic: %s %s %s", xt, e.Op, yt)
		return xt
	}
	if !xt.IsArithmetic() || !yt.IsArithmetic() {
		c.errorf(e.Pos(), "operator %s requires arithmetic operands, got %s and %s", e.Op, xt, yt)
	}
	return types.Common(xt, yt)
}

func (c *checker) callType(e *ast.CallExpr) *types.Type {
	if b, ok := Builtins[e.Name]; ok {
		if len(e.Args) != len(b.Params) {
			c.errorf(e.Pos(), "%s expects %d arguments, got %d", e.Name, len(b.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at := c.checkExpr(a)
			if i < len(b.Params) && !at.ConvertibleTo(b.Params[i]) {
				c.errorf(a.Pos(), "argument %d to %s: cannot convert %s to %s", i+1, e.Name, at, b.Params[i])
			}
		}
		inKernel := c.cur != nil && c.cur.Kernel
		if b.GPUOnly && !inKernel {
			c.errorf(e.Pos(), "%s may only be called inside a kernel", e.Name)
		}
		if b.CPUOnly && inKernel {
			c.errorf(e.Pos(), "%s may not be called inside a kernel", e.Name)
		}
		return b.Result
	}
	f, ok := c.info.Funcs[e.Name]
	if !ok {
		c.errorf(e.Pos(), "call of undefined function %s", e.Name)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return types.IntType
	}
	if f.Kernel {
		c.errorf(e.Pos(), "kernel %s must be launched with <<<...>>>, not called", e.Name)
	}
	if c.cur != nil && c.cur.Kernel {
		c.errorf(e.Pos(), "kernel %s may not call CPU function %s", c.cur.Name, e.Name)
	}
	if len(e.Args) != len(f.Params) {
		c.errorf(e.Pos(), "%s expects %d arguments, got %d", e.Name, len(f.Params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(f.Params) {
			pt := f.Params[i].Type
			dpt := pt.Decay()
			if !at.ConvertibleTo(dpt) {
				c.errorf(a.Pos(), "argument %d to %s: cannot convert %s to %s", i+1, e.Name, at, dpt)
			}
		}
	}
	res := f.Result
	return &res
}
