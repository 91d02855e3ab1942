package compiler

import (
	"reflect"
	"strings"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// recipeSlice is r3 = r1 + r2, whose first operand r1 = r4 * r0 is
// recomputed, and whose second is checkpointed into Hist entry 5.
func recipeSlice() (*rslice.Slice, map[*rslice.Node]int) {
	child := &rslice.Node{PC: 0, In: isa.Instr{Op: isa.MUL, Dst: 1, Src1: 4, Src2: isa.R0}}
	root := &rslice.Node{PC: 1, In: isa.Instr{Op: isa.ADD, Dst: 3, Src1: 1, Src2: 2},
		Children: map[int]*rslice.Node{0: child}}
	s := &rslice.Slice{
		Root:  root,
		Nodes: []*rslice.Node{child, root},
		Inputs: []*rslice.Input{
			{Node: child, Operand: 0, Reg: 4, Kind: rslice.InputLive},
			{Node: root, Operand: 1, Reg: 2, Kind: rslice.InputHist},
		},
	}
	return s, map[*rslice.Node]int{root: 5}
}

// TestBuildRecipeLayout pins the frame layout: zero, the live registers,
// the Hist slots, then one result per op.
func TestBuildRecipeLayout(t *testing.T) {
	s, histOf := recipeSlice()
	r, err := buildRecipe(s, histOf)
	if err != nil {
		t.Fatal(err)
	}
	want := Recipe{
		Live: []isa.Reg{4},
		Hist: []HistSlot{{ID: 5, Slot: 1, Op: 1}},
		Ops: []RecipeOp{
			{Op: isa.MUL, Cat: isa.CatIntMul, Src: [3]uint16{1, 0, 0}},
			{Op: isa.ADD, Cat: isa.CatIntALU, Src: [3]uint16{3, 2, 0}},
		},
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("recipe = %+v, want %+v", r, want)
	}
	if r.Results() != 3 || r.FrameLen() != 5 {
		t.Fatalf("results at %d, frame %d; want 3 and 5", r.Results(), r.FrameLen())
	}
}

// TestBuildRecipeRejects covers the rules a walk no longer checks: each is
// an error when the recipe is built.
func TestBuildRecipeRejects(t *testing.T) {
	cases := []struct {
		name, want string
		edit       func(s *rslice.Slice)
	}{
		{"empty body", "empty body", func(s *rslice.Slice) { s.Nodes = nil }},
		{"operand from a later op", "not an earlier op's result", func(s *rslice.Slice) {
			s.Nodes[0], s.Nodes[1] = s.Nodes[1], s.Nodes[0]
		}},
		{"operand from outside the body", "not an earlier op's result", func(s *rslice.Slice) {
			s.Nodes = s.Nodes[1:]
		}},
		{"writable body load", "load of writable memory", func(s *rslice.Slice) {
			s.Nodes[0].In = isa.Instr{Op: isa.LD, Dst: 1, Src1: 4}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, histOf := recipeSlice()
			tc.edit(s)
			if _, err := buildRecipe(s, histOf); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("buildRecipe error %v, want %q", err, tc.want)
			}
		})
	}
	s, histOf := recipeSlice()
	s.Nodes[0].In, s.Nodes[0].ReadOnlyLoad = isa.Instr{Op: isa.LD, Dst: 1, Src1: 4}, true
	if r, err := buildRecipe(s, histOf); err != nil || !r.HasLoad || r.Ops[0].Cat != isa.CatLoad {
		t.Fatalf("read-only body load: recipe %+v, error %v", r, err)
	}
}
