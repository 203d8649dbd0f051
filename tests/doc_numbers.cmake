# Fails when a number README.md or EXPERIMENTS.md quotes is missing from the
# golden it names.
#
#   cmake -DROOT=<source dir> -P doc_numbers.cmake
#
# The convention: a doc quotes this repository's numbers only in markdown
# tables with a "golden" column. Each body row names a file under
# tests/goldens in that column, and every number in the row's columns whose
# header starts with "ours" must appear in that file as a whole number
# (thousands separators in the doc are ignored). A table with an "ours"
# column and no "golden" column fails, as does a row that names no golden
# and a doc that quotes no golden number at all.

cmake_minimum_required(VERSION 3.16)

set(goldens ${ROOT}/tests/goldens)
set(failures "")

foreach(doc README.md EXPERIMENTS.md)
  file(READ ${ROOT}/${doc} text)
  # Keep list handling literal: ';' separates lines below, and an unbalanced
  # '[' would stop CMake splitting the list.
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(checked 0)
  set(in_table FALSE)
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^\\|(.*)\\|[ \t]*$")
      set(in_table FALSE)
      continue()
    endif()
    string(REPLACE "|" ";" cells "${CMAKE_MATCH_1}")
    if(NOT in_table)
      # A table's first row: find its golden column and its "ours" columns.
      set(in_table TRUE)
      set(golden_col -1)
      set(ours_cols "")
      set(i 0)
      foreach(cell IN LISTS cells)
        string(STRIP "${cell}" cell)
        string(TOLOWER "${cell}" cell)
        if(cell STREQUAL "golden")
          set(golden_col ${i})
        elseif(cell MATCHES "^ours")
          list(APPEND ours_cols ${i})
        endif()
        math(EXPR i "${i} + 1")
      endforeach()
      list(LENGTH ours_cols n_ours)
      if(n_ours GREATER 0 AND golden_col EQUAL -1)
        list(APPEND failures "${doc}: table quotes our numbers but has no golden column: ${line}")
      endif()
      continue()
    endif()
    if(line MATCHES "^\\|[-: |]*$" OR golden_col EQUAL -1)
      continue()  # the header's separator row, or a table that quotes no golden
    endif()
    list(GET cells ${golden_col} golden_file)
    string(REGEX REPLACE "[` \t]" "" golden_file "${golden_file}")
    if(golden_file STREQUAL "" OR NOT EXISTS ${goldens}/${golden_file})
      list(APPEND failures "${doc}: row names no golden under tests/goldens: ${line}")
      continue()
    endif()
    file(READ ${goldens}/${golden_file} golden_text)
    foreach(col IN LISTS ours_cols)
      list(GET cells ${col} cell)
      string(REGEX MATCHALL "[0-9]+(,[0-9][0-9][0-9])*(\\.[0-9]+)?" numbers "${cell}")
      foreach(number IN LISTS numbers)
        string(REPLACE "," "" bare "${number}")
        string(REPLACE "." "\\." pattern "${bare}")
        if(NOT golden_text MATCHES "(^|[^0-9.])${pattern}([^0-9.]|\\.[^0-9]|\\.?$)")
          list(APPEND failures "${doc}: ${number} is not in ${golden_file}: ${line}")
        endif()
        math(EXPR checked "${checked} + 1")
      endforeach()
    endforeach()
  endforeach()
  if(checked EQUAL 0)
    list(APPEND failures "${doc}: quotes no golden number")
  endif()
  message(STATUS "${doc}: ${checked} quoted numbers checked")
endforeach()

if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "doc numbers missing from their goldens:\n  ${failures}")
endif()
