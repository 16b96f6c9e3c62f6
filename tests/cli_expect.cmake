# Runs `fusedp ARGS` and fails unless it exits 0 and, with EXPECT, prints
# a match for that regex.  With THEN, `fusedp THEN` runs next and must
# also exit 0 and print the same first block (the text before the first
# blank line: `fusedp schedule`'s grouping).
#
#   cmake -DFUSEDP=<exe> "-DARGS=a;b" [-DEXPECT=<regex>] ["-DTHEN=c;d"]
#         -P cli_expect.cmake
function(run_fusedp args out_var)
  execute_process(COMMAND ${FUSEDP} ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fusedp ${args} exited ${rc}:\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(first_block text out_var)
  string(FIND "${text}" "\n\n" end)
  string(SUBSTRING "${text}" 0 ${end} block)
  set(${out_var} "${block}" PARENT_SCOPE)
endfunction()

run_fusedp("${ARGS}" first)
if(DEFINED EXPECT AND NOT first MATCHES "${EXPECT}")
  message(FATAL_ERROR "fusedp ${ARGS} printed no match for '${EXPECT}':\n"
                      "${first}")
endif()
if(DEFINED THEN)
  run_fusedp("${THEN}" second)
  first_block("${first}" a)
  first_block("${second}" b)
  if(NOT a STREQUAL b)
    message(FATAL_ERROR "fusedp ${ARGS} printed\n${a}\nbut fusedp ${THEN} "
                        "printed\n${b}")
  endif()
endif()
