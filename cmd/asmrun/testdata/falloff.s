; A hot loop whose closing branch is the last instruction: once the loop is
; done, execution runs off the program's end, which the core reports as an
; out-of-range pc. The loop replays as a trace first, so its final side
; exit leaves the trace one past the end.
    li   r2, 100
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
