# Fails when the DESIGN.md §7 `Options` table and the option structs
# disagree: a data member of ExecOptions, AutoScheduleOptions or Options
# with no row naming it under its struct, or a row naming a field the
# struct no longer has.
#
#   cmake -DSOURCE_DIR=<repo root> -P check_options_table.cmake
#
# The table is where each field's class (cache key, kMeasured key or
# runtime-only) is decided, so a new field must be classified there before
# it lands.  Data members are the top-level `type name [= init];` (or
# `{init}`) declarations of each struct body; member functions (a `(`
# before any initializer) are skipped, and a declaration the script cannot
# read fails the check.
cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "check_options_table: -DSOURCE_DIR=... is required")
endif()

# struct name -> header that defines it.
set(structs ExecOptions AutoScheduleOptions Options)
set(header_ExecOptions src/runtime/executor.hpp)
set(header_AutoScheduleOptions src/fusion/autoschedule.hpp)
set(header_Options src/api/session.hpp)

set(members "")
foreach(st IN LISTS structs)
  file(READ "${SOURCE_DIR}/${header_${st}}" text)
  string(REGEX REPLACE "//[^\n]*" "" text "${text}")
  # CMake list splitting ignores `;` inside square brackets.
  string(REPLACE "[" "<" text "${text}")
  string(REPLACE "]" ">" text "${text}")
  string(FIND "${text}" "\nstruct ${st} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "check_options_table: no `struct ${st}` in "
                        "${header_${st}}")
  endif()
  string(SUBSTRING "${text}" ${at} -1 text)
  string(FIND "${text}" "{" open)
  string(FIND "${text}" "\n};" close)
  math(EXPR open "${open} + 1")
  math(EXPR len "${close} - ${open}")
  string(SUBSTRING "${text}" ${open} ${len} body)
  set(count 0)
  foreach(decl IN LISTS body)
    string(REGEX REPLACE "[={].*" "" head "${decl}")
    string(STRIP "${head}" head)
    if(head STREQUAL "" OR head MATCHES "[(]")
      continue()
    endif()
    if(NOT head MATCHES "([A-Za-z_][A-Za-z0-9_]*)$")
      message(FATAL_ERROR "check_options_table: cannot read `${decl}` in "
                          "struct ${st}")
    endif()
    list(APPEND members "${st}.${CMAKE_MATCH_1}")
    math(EXPR count "${count} + 1")
  endforeach()
  if(count EQUAL 0)
    message(FATAL_ERROR "check_options_table: struct ${st} has no members")
  endif()
  message(STATUS "check_options_table: ${st}: ${count} field(s)")
endforeach()

# Rows of the table: | `a`, `b` | `Struct` | class | callers |
file(READ "${SOURCE_DIR}/DESIGN.md" design)
string(FIND "${design}" "### The `Options` surface" at)
if(at EQUAL -1)
  message(FATAL_ERROR "check_options_table: DESIGN.md has no "
                      "\"The `Options` surface\" section")
endif()
string(SUBSTRING "${design}" ${at} -1 design)
string(REPLACE ";" "," design "${design}")
string(REPLACE "\n" ";" lines "${design}")
set(rows "")
foreach(line IN LISTS lines)
  if(line MATCHES "^## ")
    break()
  endif()
  if(NOT line MATCHES "^\\| `")
    continue()
  endif()
  if(NOT line MATCHES "^\\|([^|]*)\\| `([A-Za-z]+)` \\|")
    message(FATAL_ERROR "check_options_table: cannot read row: ${line}")
  endif()
  set(st "${CMAKE_MATCH_2}")
  string(REGEX MATCHALL "`[A-Za-z_][A-Za-z0-9_]*`" names "${CMAKE_MATCH_1}")
  foreach(n IN LISTS names)
    string(REPLACE "`" "" n "${n}")
    list(APPEND rows "${st}.${n}")
  endforeach()
endforeach()

set(bad "")
foreach(m IN LISTS members)
  if(NOT m IN_LIST rows)
    string(APPEND bad "  ${m}: no row in the DESIGN.md §7 table\n")
  endif()
endforeach()
foreach(r IN LISTS rows)
  if(NOT r IN_LIST members)
    string(APPEND bad "  ${r}: row names no such field\n")
  endif()
endforeach()
if(NOT bad STREQUAL "")
  message(FATAL_ERROR "check_options_table: the `Options` table and the "
                      "option structs disagree:\n${bad}")
endif()
list(LENGTH members n)
message(STATUS "check_options_table: ${n} field(s), each with a row")
