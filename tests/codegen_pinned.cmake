# Guards the code shape of every queue operation: ring operations and
# the helpers they call are [[gnu::always_inline]] and backend entry
# points [[gnu::noinline]], so a figure binary must hold no out-of-line
# copy of a ring operation or helper.
# Any symbol matching the pattern below is a call the source says
# cannot exist, and the figures would again price the inliner.
#
# One symbol must exist: wCQ's try_pop answers a spent threshold as a
# leaf and tail-calls everything else, pop_from_ring. Folded back into
# try_pop, the remainder's register saves precede the empty exit, so
# Figure 11a's binary must hold pop_from_ring out of line.
#
#   cmake -DNM=<nm> -DBINARIES=<bin>,<bin>,... -P codegen_pinned.cmake
cmake_minimum_required(VERSION 3.16)

# The ring ops: the single-op loops (enqueue_idx/dequeue_idx), the
# ticket bursts (enqueue_idx_n/dequeue_idx_n) and the ticket bodies
# they share (enqueue_ticket/dequeue_ticket). enqueue_idx is a template
# over its caller's data access, and nm -C prints a template's
# arguments before its parameter list, so the name may be followed by
# '<' as well as '('. Then the small helpers every operation calls:
# the entry codec's pure accessors, Geometry's layout (map/unmap) and
# the packing they decode with, the Head-then-Tail read behind the
# empty exit and the burst cap (tail_lead), the threshold's
# level/spent/armed/arm/spend, wCQ's counter bump, the entry prefetch
# every ticket body emits, and the data accesses a stage 2 hands to
# enqueue_idx (NoAccess, StoreValue, LoadValue). Left to gcc, arm and
# owner_bump were out of line in six of the eleven figure binaries, so
# wCQ's try_push called both on every successful push. CMake's regex
# allows 9 groups; this one uses 8.
set(_pattern "(enqueue|dequeue)_(idx|idx_n|ticket)[<(]|wcq::(Crq|ScqSegment)::(push|pop)\\(|wcq::ScqRingT<[^>]*>::(pack|cycle_of|is_safe|idx_of|bot|word_at|tail_lead)\\(|wcq::ring::Geometry::(map|unmap|pack|cycle_of_pos|cycle_of_entry|is_safe|idx_of_entry|bot)\\(|wcq::ring::ScqThreshold::(level|spent|armed|arm|spend)\\(|wcq::detail::(owner_bump|prefetch_for_write|NoAccess::operator|StoreValue::operator|LoadValue::operator)\\(")

string(REPLACE "," ";" _binaries "${BINARIES}")
set(_found 0)
set(_leaf_exit FALSE)
foreach(bin IN LISTS _binaries)
  execute_process(COMMAND ${NM} -C ${bin}
                  OUTPUT_VARIABLE _symbols
                  RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${NM} -C ${bin} failed (${_rc})")
  endif()
  get_filename_component(_name ${bin} NAME)
  if(_name STREQUAL "bench_fig11a_empty_deq" AND
     _symbols MATCHES "WcqQueueT<false>::pop_from_ring\\(")
    set(_leaf_exit TRUE)
  endif()
  string(REPLACE "\n" ";" _lines "${_symbols}")
  list(FILTER _lines INCLUDE REGEX "${_pattern}")
  foreach(hit IN LISTS _lines)
    message("${bin}: ${hit}")
    math(EXPR _found "${_found} + 1")
  endforeach()
endforeach()

list(LENGTH _binaries _count)
if(_found GREATER 0)
  message(FATAL_ERROR "${_found} out-of-line ring operation(s) in "
                      "${_count} binaries")
endif()
message("no out-of-line ring operation in ${_count} binaries")

if(NOT _leaf_exit)
  message(FATAL_ERROR "bench_fig11a_empty_deq: no out-of-line "
                      "WcqQueueT<false>::pop_from_ring; wCQ's empty exit "
                      "is no longer a leaf")
endif()
message("wCQ's pop_from_ring is out of line in bench_fig11a_empty_deq")
