# Runs `fusedp ARGS` and fails unless it exits RC (default 0) and, with
# EXPECT, prints a match for that regex (on stdout, or on stderr when RC is
# not 0).  With THEN, `fusedp THEN` runs next and must exit 0 and print the
# same first block (the text before the first blank line: `fusedp
# schedule`'s grouping).
#
#   cmake -DFUSEDP=<exe> "-DARGS=a;b" [-DRC=<code>] [-DEXPECT=<regex>]
#         ["-DTHEN=c;d"] -P cli_expect.cmake
if(NOT DEFINED RC)
  set(RC 0)
endif()

function(run_fusedp args want_rc out_var)
  execute_process(COMMAND ${FUSEDP} ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "fusedp ${args} exited ${rc}, want ${want_rc}:\n"
                        "${out}${err}")
  endif()
  if(NOT want_rc EQUAL 0)
    set(out "${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(first_block text out_var)
  string(FIND "${text}" "\n\n" end)
  string(SUBSTRING "${text}" 0 ${end} block)
  set(${out_var} "${block}" PARENT_SCOPE)
endfunction()

run_fusedp("${ARGS}" ${RC} first)
if(DEFINED EXPECT AND NOT first MATCHES "${EXPECT}")
  message(FATAL_ERROR "fusedp ${ARGS} printed no match for '${EXPECT}':\n"
                      "${first}")
endif()
if(DEFINED THEN)
  run_fusedp("${THEN}" 0 second)
  first_block("${first}" a)
  first_block("${second}" b)
  if(NOT a STREQUAL b)
    message(FATAL_ERROR "fusedp ${ARGS} printed\n${a}\nbut fusedp ${THEN} "
                        "printed\n${b}")
  endif()
endif()
