; Two hot loops: the first stores a value derived from the index into one
; cache line per entry, the second loads the entries back and sums them.
; The amnesic compiler swaps the second loop's load for a recomputation
; from the live index, so the amnesic run replays RCMPs inside a trace.
; Classic and amnesic runs must end in the same architectural state.
    li   r1, 65536       ; table base
    li   r3, 4000        ; entries
    li   r5, 37
    li   r2, 0
fill:
    mul  r4, r2, r5
    addi r4, r4, 7
    st   r4, 0(r1)
    addi r1, r1, 64      ; one cache line per entry
    addi r2, r2, 1
    blt  r2, r3, fill
    li   r1, 65536
    li   r2, 0
sum:
    ld   r6, 0(r1)
    add  r7, r7, r6
    addi r1, r1, 64
    addi r2, r2, 1
    blt  r2, r3, sum
    halt
